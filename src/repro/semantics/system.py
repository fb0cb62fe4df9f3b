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
(:meth:`System.moves_from`).  A network's discrete semantics is compiled
once, lazily: its integer expressions become closures
(:mod:`repro.expr.eval`), and each (mode, location vector) gets its
ordered move candidates, which a variable state only filters by the
guards they need:

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
from typing import Dict, Iterator, List, Optional, Tuple

from ..dbm import DBM, Federation
from ..dbm import backends as _backends
from ..dbm.backends.base import ExpansionTable, MovePlan
from ..dbm.bounds import decoded
from ..dbm.dbm import Window, fold_delay_window
from ..expr.ast import names_in
from ..expr.clocksplit import ClockAtom, GuardError
from ..expr.env import Declarations
from ..expr.eval import (
    Context,
    EvalError,
    compile_conjunction,
    compile_expr,
    compile_writes,
    constant_value,
)
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


class _Broadcast:
    """A template entry whose moves depend on which receivers listen.

    ``head`` is the emitter ``((i, edge),)`` (empty for an environment
    emission received in partial mode); ``groups`` lists, per listening
    automaton in index order, ``(j, committed, ((guard, edge), ...))``.
    """

    __slots__ = ("label", "direction", "controllable", "head", "need_committed",
                 "groups")

    def __init__(self, label, direction, controllable, head, need_committed, groups):
        self.label = label
        self.direction = direction
        self.controllable = controllable
        self.head = head
        #: The state is committed but the emitter is not: some receiver
        #: must sit in a committed location.
        self.need_committed = need_committed
        self.groups = groups


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
        # The network's compiled discrete semantics and the memoized
        # per-discrete-state results built on it.  Everything below is a
        # pure function of the (frozen, prepared) network, so the bundle
        # is stored *on the network* and shared by every System wrapping
        # it — workloads that build many Systems of the same model (the
        # differential harness, benchmark rounds) start warm.  Each part
        # is built lazily, on first use.
        shared = getattr(network, "_semantics_caches", None)
        if shared is None:
            shared = network._semantics_caches = {
                "guard_fns": [],
                "guard_ids": {},
                "edge_guard": {},
                "templates": {},
                "broadcasts": {},
                "updates": {},
                "guard_bounds": {},
                "resets": {},
                "invariants": {},
                "step_statics": {},
                "inv": {},
                "inv_upper": {},
                "moves": {},
                "steps": {},
                "plans": {},
                "expansions": {},
                "concrete_moves": {},
                "estimate_steps": {},
            }
        # Integer guards, compiled once per distinct content: a guard id
        # indexes ``_guard_fns``; edges without integer atoms have None.
        self._guard_fns: List = shared["guard_fns"]
        self._guard_ids: Dict[tuple, int] = shared["guard_ids"]
        self._edge_guard: Dict[int, Optional[int]] = shared["edge_guard"]
        # (mode, locs) -> ordered move candidates (see moves_from).
        self._templates: Dict[tuple, list] = shared["templates"]
        # (direction, edge key) -> the broadcast Move of that combination.
        self._broadcasts: Dict[tuple, "Move"] = shared["broadcasts"]
        # Per move key: the compiled variable update, the clock-guard
        # bounds (a tuple, or a function of the variables) and the resets.
        self._updates: Dict[Tuple[int, ...], object] = shared["updates"]
        self._guard_bounds: Dict[Tuple[int, ...], object] = shared["guard_bounds"]
        self._resets_cache: Dict[
            Tuple[int, ...], Tuple[Tuple[int, int], ...]
        ] = shared["resets"]
        # locs -> (integer invariant or None, clock bounds, can delay).
        self._invariants: Dict[Tuple[int, ...], tuple] = shared["invariants"]
        # (move key, source locs) -> everything of a step but the vars.
        self._step_statics: Dict[tuple, tuple] = shared["step_statics"]
        # Invariant constraints -> invariant zone.
        self._inv_cache: Dict[tuple, DBM] = shared["inv"]
        # Invariant constraints -> the invariant zone's upper bounds.
        self._inv_upper: Dict[tuple, tuple] = shared["inv_upper"]
        # (mode, locs, vars) -> enabled moves.
        self._moves_cache: Dict[tuple, List["Move"]] = shared["moves"]
        # (move, source locs, source vars) -> (target or None, plan); the
        # plans themselves are interned by content, so moves and states
        # that compile to the same step share one plan.
        self._step_cache: Dict[tuple, tuple] = shared["steps"]
        self._plans: Dict[tuple, MovePlan] = shared["plans"]
        # (mode, locs, vars, caps) -> ExpansionTable.
        self._expansions: Dict[tuple, ExpansionTable] = shared["expansions"]
        # (mode, locs, vars) -> the concrete semantics' feasible moves
        # with their decoded clock guards (see _concrete_moves).
        self._concrete: Dict[tuple, list] = shared["concrete_moves"]
        # (mode, locs, vars, time scale) -> the state estimator's compiled
        # steps (repro.semantics.compose, which bounds the table).
        self.estimate_steps: Dict[tuple, object] = shared["estimate_steps"]
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
    # Compiled expressions and invariants
    # ------------------------------------------------------------------

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

    def _projector(self, exprs):
        """A fast callable projecting a var state onto what ``exprs`` read
        (arrays whole)."""
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
        if not slots:
            return _project_nothing
        return itemgetter(*sorted(slots)) if len(slots) > 1 else itemgetter(*slots)

    def _guard_id(self, edge: Edge) -> Optional[int]:
        """Index of the edge's compiled integer guard (None: no atoms)."""
        try:
            return self._edge_guard[edge.index]
        except KeyError:
            pass
        atoms = edge.guard_split.int_atoms
        gid = None
        if atoms:
            if atoms in self._guard_ids:
                gid = self._guard_ids[atoms]
            else:
                fn = compile_conjunction(atoms, self.decls)
                if fn is not None:  # None: constantly true
                    gid = len(self._guard_fns)
                    self._guard_fns.append(fn)
                self._guard_ids[atoms] = gid
        self._edge_guard[edge.index] = gid
        return gid

    def _guards(self, *edges: Edge) -> Tuple[int, ...]:
        """The guard ids a candidate move must pass, in evaluation order."""
        out: List[int] = []
        for edge in edges:
            gid = self._guard_id(edge)
            if gid is not None and gid not in out:
                out.append(gid)
        return tuple(out)

    def _bounds(self, atoms: List[ClockAtom]):
        """Encoded constraints of clock atoms: a tuple when no bound reads
        a variable, else a function of the variables returning one (also
        when a constant is out of range: the error is raised on use)."""
        decls = self.decls
        values = [constant_value(atom.rhs, decls) for atom in atoms]
        if None not in values:
            try:
                return tuple(
                    c for atom, k in zip(atoms, values) for c in atom.encode(k)
                )
            except GuardError:
                pass
        parts = [(atom.encode, compile_expr(atom.rhs, decls)) for atom in atoms]

        def bounds(vars: Tuple[int, ...]) -> tuple:
            out: list = []
            for encode, rhs in parts:
                out.extend(encode(rhs(vars)))
            return tuple(out)

        return bounds

    def _invariant(self, locs: Tuple[int, ...]) -> tuple:
        """``(integer test or None, clock bounds, can delay)`` at ``locs``."""
        inv = self._invariants.get(locs)
        if inv is None:
            int_atoms: list = []
            clock_atoms: list = []
            delay = True
            for a_idx, automaton in enumerate(self.automata):
                loc = automaton.location_list[locs[a_idx]]
                int_atoms.extend(loc.inv_split.int_atoms)
                clock_atoms.extend(loc.inv_split.clock_atoms)
                delay = delay and not (loc.committed or loc.urgent)
            inv = self._invariants[locs] = (
                compile_conjunction(int_atoms, self.decls),
                self._bounds(clock_atoms),
                delay,
            )
        return inv

    def invariant_int_ok(self, locs: Tuple[int, ...], vars: Tuple[int, ...]) -> bool:
        test = self._invariant(locs)[0]
        return test is None or test(vars) != 0

    def invariant_constraints(
        self, locs: Tuple[int, ...], vars: Tuple[int, ...]
    ) -> tuple:
        """Encoded clock constraints of the invariants at a discrete state.

        Intersecting a canonical zone with these via incremental
        tightening is much cheaper than a full closure against the
        invariant *zone* — invariants carry only a handful of bounds.
        """
        bounds = self._invariant(locs)[1]
        return bounds if bounds.__class__ is tuple else bounds(vars)

    def invariant_zone(self, locs: Tuple[int, ...], vars: Tuple[int, ...]) -> DBM:
        constraints = self.invariant_constraints(locs, vars)
        zone = self._inv_cache.get(constraints)
        if zone is None:
            zone = self._inv_cache[constraints] = DBM.universal(
                self.dim
            ).constrained(constraints)
        return zone

    def can_delay(self, locs: Tuple[int, ...]) -> bool:
        """False iff some automaton sits in a committed or urgent location."""
        return self._invariant(locs)[2]

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
        module docstring.  The candidates of (mode, locations) are built
        once (:meth:`_template`); per variable state each integer guard
        they need is evaluated at most once, in candidate order.  Results
        are memoized per (mode, locations, variables).
        """
        key = (mode, locs, vars)
        moves = self._moves_cache.get(key)
        if moves is not None:
            return moves
        template = self._template(mode, locs)
        fns = self._guard_fns
        verdicts: Dict[int, int] = {}

        def holds(gid: int) -> int:
            ok = verdicts.get(gid)
            if ok is None:
                ok = verdicts[gid] = fns[gid](vars)
            return ok

        moves = []
        for guards, payload in template:
            for gid in guards:  # holds(), inlined in the hot loop
                ok = verdicts.get(gid)
                if ok is None:
                    ok = verdicts[gid] = fns[gid](vars)
                if not ok:
                    break
            else:
                if payload.__class__ is Move:
                    moves.append(payload)
                else:
                    moves.extend(self._broadcast_moves(payload, holds))
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

    def _template(self, mode: str, locs: Tuple[int, ...]) -> list:
        """The ordered move candidates of a location vector in a mode.

        Each entry is ``(guard ids, payload)``: the payload is a prebuilt
        :class:`Move`, enabled iff every listed integer guard holds, or a
        :class:`_Broadcast` whose receiver set depends on the variables.
        The committed rule, directions and controllability depend on the
        locations only and are applied here, once per network.
        """
        key = (mode, locs)
        template = self._templates.get(key)
        if template is not None:
            return template
        if mode not in MODES:
            raise ValueError(f"unknown move mode {mode!r}; known: {MODES}")
        committed = self.has_committed(locs)
        network = self.network
        boundary = network.boundary
        entries: list = []

        def is_committed(a_idx: int) -> bool:
            return self.automata[a_idx].location_list[locs[a_idx]].committed

        def committed_ok(*indices: int) -> bool:
            return not committed or any(is_committed(a) for a in indices)

        def alone(label, direction, controllable, a_idx, edge) -> None:
            if committed_ok(a_idx):
                entries.append((
                    self._guards(edge),
                    Move(label, direction, controllable, ((a_idx, edge),)),
                ))

        def listeners(receivers, skip) -> tuple:
            return tuple(
                (
                    j,
                    is_committed(j),
                    tuple((self._guard_id(e), e) for e in by_loc[locs[j]]),
                )
                for j, by_loc in receivers.items()
                if j != skip and by_loc.get(locs[j])
            )

        # Internal (tau) edges are identical in every mode.
        for a_idx, per_loc in enumerate(self._internal):
            for edge in per_loc.get(locs[a_idx], ()):
                alone("tau", "internal", edge.controllable, a_idx, edge)
        for channel_name, channel in network.channels.items():
            emitters = self._emit.get(channel_name) or {}
            receivers = self._recv.get(channel_name) or {}
            if not emitters and not receivers:
                continue
            if mode == OPEN or (
                mode == PARTIAL
                and not channel.broadcast
                and not network.channel_pairable(channel_name)
            ):
                if mode == PARTIAL and channel_name not in boundary:
                    continue  # internalised but unpairable: dead channel
                # Sync halves firing alone.
                if channel.broadcast:
                    emit_dir, recv_dir = "output", "input"
                    emit_ctl, recv_ctl = False, True
                else:
                    # Binary channel moves take the kind as direction.
                    emit_dir = recv_dir = channel.kind
                    emit_ctl = recv_ctl = channel.controllable
                for table, direction, controllable in (
                    (emitters, emit_dir, emit_ctl),
                    (receivers, recv_dir, recv_ctl),
                ):
                    for a_idx, by_loc in table.items():
                        for edge in by_loc.get(locs[a_idx], ()):
                            alone(channel_name, direction, controllable, a_idx, edge)
                continue
            if channel.broadcast:
                # One move per (enabled emitter edge, choice of one enabled
                # receiving edge per listening automaton); see
                # _broadcast_moves.
                hidden = mode == PARTIAL and channel_name not in boundary
                direction = "internal" if hidden else "output"
                for i, send_by_loc in emitters.items():
                    for e_send in send_by_loc.get(locs[i], ()):
                        entries.append((
                            self._guards(e_send),
                            _Broadcast(
                                channel_name, direction, False, ((i, e_send),),
                                committed and not is_committed(i),
                                listeners(receivers, i),
                            ),
                        ))
                if mode == PARTIAL and not hidden:
                    # The (unmodeled) environment may emit: one input move
                    # per choice of one enabled receiving edge in every
                    # listening automaton.
                    groups = listeners(receivers, None)
                    if groups:
                        entries.append((
                            (),
                            _Broadcast(
                                channel_name, "input", True, (), committed,
                                groups,
                            ),
                        ))
                continue
            if mode == PARTIAL and channel_name not in boundary:
                # Internalised: a hidden plant-internal step — per the
                # TIOGA convention internal moves are uncontrollable,
                # whatever the channel kind says.
                direction = "internal"
                controllable = False
            else:
                direction = channel.kind
                controllable = channel.controllable
            for i, send_by_loc in emitters.items():
                for e_send in send_by_loc.get(locs[i], ()):
                    for j, recv_by_loc in receivers.items():
                        if i == j:
                            continue
                        for e_recv in recv_by_loc.get(locs[j], ()):
                            if committed_ok(i, j):
                                entries.append((
                                    self._guards(e_send, e_recv),
                                    Move(
                                        channel_name, direction, controllable,
                                        ((i, e_send), (j, e_recv)),
                                    ),
                                ))
        self._templates[key] = entries
        return entries

    def _broadcast_moves(self, entry: _Broadcast, holds) -> List[Move]:
        """The moves of a broadcast template entry in a variable state.

        Every listening automaton with an enabled receiving edge takes
        part; one move per choice of one enabled edge each.  Receivers
        never block an emitter: an automaton with no enabled receiving
        edge simply does not participate.  Broadcast receiver guards are
        integer-only (enforced by :meth:`Network.prepare`), so each
        combination is a single symbolic move.  In a committed state the
        move is enabled iff *some* participant occupies a committed
        location.  An environment emission (no ``head``) needs a
        listener: an unheard broadcast is not a transition of the plant.
        """
        chosen = []
        for j, j_committed, options in entry.groups:
            enabled = [e for gid, e in options if gid is None or holds(gid)]
            if enabled:
                chosen.append((j, j_committed, enabled))
        if not (entry.head or chosen):
            return []
        if entry.need_committed and not any(c for _, c, _ in chosen):
            return []
        indices = [j for j, _, _ in chosen]
        memo = self._broadcasts
        moves = []
        for combo in itertools.product(*(enabled for _, _, enabled in chosen)):
            edges = entry.head + tuple(zip(indices, combo))
            key = (entry.direction, tuple(edge.index for _, edge in edges))
            move = memo.get(key)
            if move is None:
                move = memo[key] = Move(
                    entry.label, entry.direction, entry.controllable, edges
                )
            moves.append(move)
        return moves

    # ------------------------------------------------------------------
    # Discrete transition pieces
    # ------------------------------------------------------------------

    def target_locs(self, locs: Tuple[int, ...], move: Move) -> Tuple[int, ...]:
        out = list(locs)
        for a_idx, edge in move.edges:
            out[a_idx] = self.automata[a_idx].location_index(edge.target)
        return tuple(out)

    def _update(self, move: Move):
        """The move's compiled variable update (emitter first), or None
        when it assigns no variable.  It returns the new variables, or
        None when the update is not a transition: a value out of its
        declared range, an array index out of bounds, or an evaluation
        error."""
        key = move.key
        try:
            return self._updates[key]
        except KeyError:
            pass
        writes = tuple(
            write
            for _, edge in move.edges
            for write in compile_writes(edge.int_assigns, self.decls)
        )
        update = None
        if writes:

            def update(vars: Tuple[int, ...]) -> Optional[Tuple[int, ...]]:
                state = list(vars)
                try:
                    for write in writes:
                        write(state, (), None)
                except (OverflowError, IndexError, EvalError):
                    return None
                return tuple(state)

        self._updates[key] = update
        return update

    def apply_move_vars(
        self, vars: Tuple[int, ...], move: Move
    ) -> Optional[Tuple[int, ...]]:
        """Variable update of a move (emitter first); None when the update
        leaves a declared range or indexes an array out of bounds."""
        update = self._update(move)
        return vars if update is None else update(vars)

    def guard_constraints(self, move: Move, vars: Tuple[int, ...]) -> tuple:
        """Encoded clock constraints of a move's guards."""
        bounds = self._guard_bounds.get(move.key)
        if bounds is None:
            bounds = self._guard_bounds[move.key] = self._bounds(
                [atom for _, edge in move.edges for atom in edge.guard_split.clock_atoms]
            )
        return bounds if bounds.__class__ is tuple else bounds(vars)

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
        mean anything (enough for :meth:`pred`).  The target locations,
        resets and delay flag are computed once per (move, source
        locations); per variable state only the compiled update, the
        target's integer invariant and variable clock bounds run.
        Memoized per (move, discrete state); plans are shared by content.
        """
        key = (move.key, locs, vars)
        step = self._step_cache.get(key)
        if step is not None:
            return step
        skey = (move.key, locs)
        static = self._step_statics.get(skey)
        if static is None:
            new_locs = self.target_locs(locs, move)
            static = self._step_statics[skey] = (
                new_locs, self._update(move), self.resets_of(move)
            ) + self._invariant(new_locs)
        new_locs, update, resets, inv_test, inv_bounds, delay = static
        new_vars = vars if update is None else update(vars)
        target = None
        invariant: tuple = ()
        if new_vars is not None and (inv_test is None or inv_test(new_vars)):
            target = (new_locs, new_vars)
            invariant = (
                inv_bounds if inv_bounds.__class__ is tuple else inv_bounds(new_vars)
            )
        else:
            delay = False
        content = (self.guard_constraints(move, vars), resets, invariant, delay)
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
        constraints = self.invariant_constraints(state.locs, state.vars)
        upper = self._inv_upper.get(constraints)
        if upper is None:
            upper = self._inv_upper[constraints] = tuple(
                (i, b, strict)
                for i, j, b, strict in self.invariant_zone(
                    state.locs, state.vars
                ).finite_bounds
                if i and not j
            )
        nums, den = state.scaled
        hi: Optional[int] = None
        hi_strict = False
        for i, b, strict in upper:
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

    def _concrete_moves(
        self, locs: Tuple[int, ...], vars: Tuple[int, ...], mode: str
    ) -> list:
        """``[move, decoded clock guard]`` of every move of
        :meth:`moves_from` whose discrete part does not block.

        Variable feasibility: a move whose update leaves a bounded
        variable's range (or violates the target's integer invariant) is
        not a transition — :meth:`fire` refuses it, so it must not be
        offered as enabled either.  Delays don't change variables, so
        this is delay-independent and memoized per (mode, discrete
        state).  The guard slot is None until :meth:`_move_windows`
        first needs it (decoding a bound that reads a variable can
        raise).
        """
        key = (mode, locs, vars)
        moves = self._concrete.get(key)
        if moves is None:
            moves = self._concrete[key] = [
                [move, None]
                for move in self.moves_from(locs, vars, mode)
                if (new_vars := self.apply_move_vars(vars, move)) is not None
                and self.invariant_int_ok(self.target_locs(locs, move), new_vars)
            ]
        return moves

    def _move_windows(
        self,
        state: ConcreteState,
        mode: str,
        directions: Optional[Tuple[str, ...]],
    ) -> Iterator[Tuple[Move, Window]]:
        """The enabled moves of :meth:`move_options` with their windows."""
        vars = state.vars
        nums, den = state.scaled
        hi, hi_strict = self._delay_limit(state)
        for entry in self._concrete_moves(state.locs, vars, mode):
            move, guards = entry
            if directions is not None and move.direction not in directions:
                continue
            if guards is None:
                guards = entry[1] = decoded(self.guard_constraints(move, vars))
            window = fold_delay_window(guards, nums, den, hi, hi_strict)
            if window is not None:
                yield move, window

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
        den = state.scaled[1]
        return [
            (move, DelayInterval.from_window(window, den))
            for move, window in self._move_windows(state, mode, directions)
        ]

    def enabled_now(
        self,
        state: ConcreteState,
        *,
        mode: str = CLOSED,
        directions: Optional[Tuple[str, ...]] = None,
    ) -> List[Tuple[Move, DelayInterval]]:
        """Moves enabled at the current instant (zero delay)."""
        den = state.scaled[1]
        return [
            (move, DelayInterval.from_window(window, den))
            for move, window in self._move_windows(state, mode, directions)
            if not (window[0] or window[1])  # delay 0 is in the window
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
        nums, den = state.scaled
        resets = self.resets_of(move)
        if resets:
            nums = list(nums)
            for clock, value in resets:
                nums[clock] = value * den
            nums = tuple(nums)
        new_state = ConcreteState._of(new_locs, new_vars, nums, den)
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
