"""State estimation for partially composed plants (UPPAAL-TRON style).

A multi-automaton plant monitored through its interface partition has
*hidden* moves: internalised synchronizations (and their variable
updates) fire at instants the tester cannot observe.  ``s0 After σ`` is
then no longer a single state but the **set** of states reachable by
interleaving σ's observed delays and actions with hidden moves at
arbitrary legal times.  :class:`StateEstimate` tracks that set
symbolically, which is exactly what the online monitors need:

* a delay ``d`` is conformant iff *some* member admits a hidden-move
  interleaving of total duration exactly ``d``;
* an output ``o`` is allowed iff *some* member enables an ``o`` move at
  the current instant;
* the maximal quiescence is the supremum of durations reachable without
  an observable action.

**Representation.**  Members are ``(locations, variables, zone)`` triples
whose zones live in a DBM *padded with one extra clock* ``t`` (index
``system.dim``): the time elapsed since the last observation.  ``t``
appears in no model constraint, so guard/invariant/reset encodings from
:class:`~repro.semantics.system.System` apply unchanged, while
constraining ``t == d`` after a timed closure selects exactly the
interleavings of duration ``d``.  Observed delays are rationals; all
encodings are integers, so the estimate keeps a global *time scale*
``k`` (every bound multiplied by ``k``) and rescales on demand so that
``k·d`` is integral — the classic region-to-integer trick.

The timed closure is a reachability fixpoint (delay-close, fire hidden
moves, repeat, with zone-inclusion subsumption) bounded by
``max_states``; models whose hidden behaviour exceeds the budget raise
:class:`EstimateLimit` rather than returning an unsound answer.

**Compiled steps.**  Members sharing a discrete state ``(locs, vars)``
are indistinguishable to the model: same moves, same guard/invariant
encodings, same resets.  Every step the estimate takes is therefore a
:class:`~repro.dbm.backends.base.MovePlan` compiled once per discrete
state by :class:`~repro.semantics.system.System` (:meth:`System.expansion`
for the moves enabled there, :meth:`System.step_plan` for a move named
by the observer) and scaled to the estimate's time scale once
(:meth:`MovePlan.scaled`).  The scaled steps live in a table that
:class:`~repro.semantics.system.System` shares between every wrapper of
its network, keyed by (mode, discrete state, scale), so the several
monitors built over one model compile each step once; the table is
bounded (:data:`STEP_TABLE_BOUND`), since scales follow the observed
delays' denominators.  The closure expands a member with one
``zone_expand`` kernel call over an
:class:`~repro.dbm.backends.base.ExpansionTable` of its state's hidden
moves (delayed plans for the timed closure, ``bare()``
plans for the instant one); the delay frontier, observed actions and
enabledness probes are one ``zone_successor`` call per member and move,
and a delay one ``zone_constrain`` per member.  The plans fit the padded
zones as they are: the kernels read the dimension from the matrix, and
no plan names ``t``.

Retention is *pruning* subsumption: a newly admitted zone evicts the
retained zones it strictly dominates (each test one ``first_superset``
scan over the discrete state's retained zones), so the retained set at
the fixpoint is the antichain of maximal reachable zones, which does not
depend on processing order, and the ``max_states`` budget is checked
against the post-pruning count.  The ``estimate`` fuzz check holds a
session on the compiled kernels to the same session on the numpy
reference kernels, member list for member list.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import (
    Callable, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple,
)

import numpy as np

from ..dbm import DBM
from ..dbm import backends as _backends
from ..dbm.backends.base import ExpansionTable, MovePlan
from ..dbm.bounds import INF, MAX_BOUND_CONST, decode, le
from ..expr.env import Declarations
from ..ta.model import ModelError
from ..util import counters
from .system import PARTIAL, Move, System


class EstimateLimit(RuntimeError):
    """The hidden-move closure exceeded the configured state budget."""


def apply_var_updates(decls: Declarations, vars: tuple, updates) -> tuple:
    """Apply ``(name, index_or_None, value)`` updates to a variable tuple.

    The message-payload helper shared by the monitors and the simulated
    implementations (UPPAAL value-passing idiom); unknown names and
    out-of-range array indices are ignored.
    """
    state = list(vars)
    for name, index, value in updates:
        if index is None:
            var = decls.int_vars.get(name)
            if var is not None:
                state[var.slot] = value
        else:
            arr = decls.arrays.get(name)
            if arr is not None and 0 <= index < arr.size:
                state[arr.offset + index] = value
    return tuple(state)


def _scaled_zone(zone: DBM, factor: int) -> DBM:
    """The zone with every finite bound constant multiplied by ``factor``.

    Scaling all values by the same positive factor preserves both the
    shortest-path (canonical-form) inequalities and the strictness bits,
    so the result is canonical iff the input was.  Raises
    :class:`EstimateLimit` if a scaled constant would leave the range the
    DBM kernel's drift-tolerant closure is sound for.
    """
    m = zone.m
    finite = m < INF
    values = (m >> 1) * factor
    if (abs(values[finite]) > MAX_BOUND_CONST).any():
        raise EstimateLimit(
            "rescaled zone constant exceeds the supported DBM range"
            f" (±{MAX_BOUND_CONST}); the observed delays' denominators are"
            " too varied for this model's constants"
        )
    scaled = (values << 1) | (m & 1)
    scaled[~finite] = INF
    return DBM(scaled)


class _Member(NamedTuple):
    """One element of the state set (zone padded with the elapsed clock)."""

    locs: Tuple[int, ...]
    vars: Tuple[int, ...]
    zone: DBM


class _Steps:
    """One discrete state's compiled steps at one time scale.

    ``moves`` and ``targets`` are those of :meth:`System.expansion` (the
    enabled moves whose discrete part does not block), ``posts`` their
    scaled discrete posts (no delay) and ``hidden`` the indices of the
    internal moves.  The closure tables over the hidden moves, the
    delay-frontier plan and the posts indexed by label or direction are
    built on first use.  Shared by every estimate over one network
    (:func:`_steps`), so nothing here depends on an estimate's members.
    """

    __slots__ = (
        "moves", "targets", "posts", "hidden", "frontier", "_delayed",
        "_tables", "_by_label", "_by_direction",
    )

    def __init__(self, table: ExpansionTable, scale: int):
        self.moves = table.moves
        self.targets = table.targets
        self._delayed = [plan.scaled(scale) for plan in table.plans]
        self.posts = [plan.bare() for plan in self._delayed]
        self.hidden = [
            x for x, move in enumerate(self.moves)
            if move.direction == "internal"
        ]
        self.frontier: Optional[MovePlan] = None
        self._tables: List[Optional[ExpansionTable]] = [None, None]
        self._by_label: Optional[Dict[tuple, list]] = None
        self._by_direction: Optional[Dict[str, list]] = None

    def closure_table(self, timed: bool) -> ExpansionTable:
        """The hidden moves, with their delayed plans iff ``timed``."""
        table = self._tables[timed]
        if table is None:
            plans = self._delayed if timed else self.posts
            table = self._tables[timed] = ExpansionTable(
                [self.moves[x] for x in self.hidden],
                [self.targets[x] for x in self.hidden],
                [plans[x] for x in self.hidden],
            )
        return table

    def labelled(self, label: str, direction: str) -> list:
        """``(target, post)`` of the moves with this label and direction."""
        index = self._by_label
        if index is None:
            index = self._by_label = {}
            for move, target, plan in zip(self.moves, self.targets, self.posts):
                index.setdefault((move.label, move.direction), []).append(
                    (target, plan)
                )
        return index.get((label, direction), ())

    def directed(self, direction: str) -> list:
        """``(label, post)`` of the moves in this direction."""
        index = self._by_direction
        if index is None:
            index = self._by_direction = {}
            for move, plan in zip(self.moves, self.posts):
                index.setdefault(move.direction, []).append((move.label, plan))
        return index.get(direction, ())


#: Most entries a network's shared step table (:func:`_steps`) holds.  The
#: table lives as long as the network (a server bundle lives as long as
#: the process), and every new observed-delay denominator brings a new
#: time scale, so without a bound it would grow with the trace.
STEP_TABLE_BOUND = 4096


def _steps(
    system: System,
    mode: str,
    locs: Tuple[int, ...],
    vars: Tuple[int, ...],
    scale: int,
) -> _Steps:
    """The discrete state's compiled steps at ``scale``, from the table
    :class:`System` shares between every wrapper of its network.

    Past :data:`STEP_TABLE_BOUND` entries the oldest is evicted (counted
    as ``estimate.steps_evicted``); an estimate still using it rebuilds
    it on its next step.
    """
    table = system.estimate_steps
    key = (mode, locs, vars, scale)
    steps = table.get(key)
    if steps is None:
        if len(table) >= STEP_TABLE_BOUND:
            table.pop(next(iter(table)), None)
            counters.inc("estimate.steps_evicted")
        steps = table[key] = _Steps(system.expansion(locs, vars, mode), scale)
    return steps


class _Antichain:
    """The retained zones of one discrete state: pairwise incomparable.

    The zones' matrices are kept stacked, and negated in a second stack:
    ``a <= b`` entrywise iff ``-a >= -b``, so the ``first_superset``
    kernel finds both a retained zone including a new one and the
    retained zones a new one includes, each scan one kernel call.
    """

    __slots__ = ("zones", "_stack", "_negated")

    def __init__(self) -> None:
        self.zones: List[DBM] = []
        self._stack: Optional[np.ndarray] = None
        self._negated: Optional[np.ndarray] = None

    def add(self, zone: DBM, first_superset) -> Optional[int]:
        """Retain ``zone`` unless a retained zone includes it, evicting
        the retained zones it includes; the number evicted, or None when
        ``zone`` is dropped."""
        zones = self.zones
        n = len(zones)
        m = zone.m
        if not n:
            zones.append(zone)
            return 0
        stack, negated = self._stack, self._negated
        if stack is None:
            stack = self._stack = np.empty((4,) + m.shape, dtype=np.int64)
            negated = self._negated = np.empty_like(stack)
            stack[0] = zones[0].m
            np.negative(stack[0], out=negated[0])
        if first_superset(stack[:n], m) >= 0:
            return None
        neg_m = -m
        inside = []
        x = first_superset(negated[:n], neg_m)
        while x >= 0:
            inside.append(x)
            step = first_superset(negated[x + 1 : n], neg_m)
            x = x + 1 + step if step >= 0 else -1
        if inside:
            keep = [x for x in range(n) if x not in inside]
            zones[:] = [zones[x] for x in keep]
            n = len(keep)
            stack[:n] = stack[keep]
            negated[:n] = negated[keep]
        if n == stack.shape[0]:
            stack = self._stack = np.concatenate([stack, np.empty_like(stack)])
            negated = self._negated = np.concatenate([negated, negated])
        stack[n] = m
        negated[n] = neg_m
        zones.append(zone)
        return len(inside)


class StateEstimate:
    """The set of spec states compatible with the observed timed trace."""

    def __init__(
        self,
        system: System,
        mode: str = PARTIAL,
        *,
        max_states: int = 256,
    ):
        self.system = system
        self.mode = mode
        #: Index of the padded elapsed-time clock.
        self.tdx = system.dim
        self.max_states = max_states
        self.scale = 1
        # Largest time scale for which every scaled model constant stays
        # within the DBM kernel's sound range; beyond it rescaling raises
        # EstimateLimit instead of silently corrupting closures.
        max_const = max([1] + system.network.max_constants())
        self._scale_cap = max(1, MAX_BOUND_CONST // (max_const + 1))
        self.states: List[_Member] = []
        self._closure: Optional[List[_Member]] = None
        #: Most members ever tracked at once (budget accounting).
        self.peak: int = 0
        #: Growth hook, called with the member count after every state-set
        #: change — the test server wires its global state budget here so
        #: backpressure sees estimate growth live, between observations.
        self.on_growth: Optional[Callable[[int], None]] = None
        self.reset()

    # ------------------------------------------------------------------
    # Construction / bookkeeping
    # ------------------------------------------------------------------

    def reset(self) -> None:
        system = self.system
        locs = system.network.initial_locations()
        vars = system.decls.initial_state()
        self.scale = 1
        zone = DBM.zero(self.tdx + 1)
        zone = zone.constrained(system.invariant_constraints(locs, vars))
        self.states = self._instant_closure([_Member(locs, vars, zone)])
        if not self.states:
            raise ModelError("initial state violates an invariant")
        self._closure = None
        self.peak = 0
        self._notify()

    @property
    def size(self) -> int:
        return len(self.states)

    def _notify(self) -> None:
        """Record the new member count and fire the growth hook."""
        n = len(self.states)
        if n > self.peak:
            self.peak = n
        if self.on_growth is not None:
            self.on_growth(n)

    def _ensure_scale(self, d: Fraction) -> None:
        q = d.denominator
        if self.scale % q == 0:
            return
        new_scale = self.scale * q // gcd(self.scale, q)
        if new_scale > self._scale_cap:
            raise EstimateLimit(
                f"time scale {new_scale} (lcm of observed delay"
                f" denominators) exceeds the sound DBM range for this"
                f" model's constants (cap {self._scale_cap})"
            )
        factor = new_scale // self.scale
        # Rescaling commutes with the timed closure (every bound scales
        # by the same factor), so the memo survives a scale change:
        # rescale the cached members instead of recomputing the fixpoint.
        # Both lists are rescaled before either is assigned — the closure
        # can hold larger constants than the raw states (hidden shifts
        # add model constants) and may overflow first; a partial update
        # would leave zones inflated relative to the declared scale.
        counters.inc("estimate.rescales")
        states = self._rescaled(self.states, factor)
        closure = (
            self._rescaled(self._closure, factor)
            if self._closure is not None
            else None
        )
        self.states = states
        self._closure = closure
        self.scale = new_scale

    @staticmethod
    def _rescaled(members: List[_Member], factor: int) -> List[_Member]:
        """Members with every zone bound multiplied by ``factor``."""
        return [
            _Member(m.locs, m.vars, _scaled_zone(m.zone, factor))
            for m in members
        ]

    # ------------------------------------------------------------------
    # Compiled steps
    # ------------------------------------------------------------------

    def _steps(self, locs: Tuple[int, ...], vars: Tuple[int, ...]) -> _Steps:
        """The discrete state's compiled steps at the current scale."""
        return _steps(self.system, self.mode, locs, vars, self.scale)

    def _frontier_plan(self, locs: Tuple[int, ...], vars: Tuple[int, ...]) -> MovePlan:
        """Reset the elapsed clock, then delay within the invariant."""
        steps = self._steps(locs, vars)
        plan = steps.frontier
        if plan is None:
            system = self.system
            plan = steps.frontier = MovePlan(
                (),
                ((self.tdx, 0),),
                system.invariant_constraints(locs, vars),
                system.can_delay(locs),
            ).scaled(self.scale)
        return plan

    @staticmethod
    def _grouped(members: Iterable[_Member]) -> Dict[tuple, List[_Member]]:
        """Members bucketed by discrete state, in first-appearance order."""
        groups: Dict[tuple, List[_Member]] = {}
        for member in members:
            groups.setdefault((member.locs, member.vars), []).append(member)
        return groups

    # ------------------------------------------------------------------
    # Closures
    # ------------------------------------------------------------------

    def _admit(
        self,
        seen: Dict[tuple, _Antichain],
        members: Iterable[_Member],
        retained: List[int],
    ) -> List[Tuple[tuple, List[_Member]]]:
        """Admit a frontier wave into the retained sets, with pruning.

        A new zone included in a retained (or earlier-admitted) zone of
        the same discrete state is dropped; a retained zone dominated by
        an admitted one is evicted.  Retention is therefore an antichain
        per discrete state, and — because the zone operators are
        inclusion-monotone, so a dominating zone's successors cover a
        dominated zone's — the fixpoint's retained sets are independent
        of processing order.  The ``max_states`` budget is checked
        against the post-pruning total carried in the one-cell
        ``retained`` count, after each discrete state.  Returns the
        admitted members still retained (the next expansion wave), per
        discrete state.
        """
        first_superset = _backends.active().first_superset
        wave: List[Tuple[tuple, List[_Member]]] = []
        for key, group in self._grouped(members).items():
            chain = seen.get(key)
            if chain is None:
                chain = seen[key] = _Antichain()
            admitted: List[_Member] = []
            for member in group:
                if member.zone.is_empty():
                    continue
                evicted = chain.add(member.zone, first_superset)
                if evicted is None:
                    continue
                retained[0] += 1 - evicted
                admitted.append(member)
            if len(admitted) > 1:
                # A zone evicted by a later one of the same wave needs no
                # expansion: its successors are covered.
                alive = {id(zone) for zone in chain.zones}
                admitted = [m for m in admitted if id(m.zone) in alive]
            if admitted:
                wave.append((key, admitted))
            if retained[0] > self.max_states:
                raise EstimateLimit(
                    f"hidden-move closure exceeded {self.max_states} symbolic"
                    f" states (raise max_states or simplify the partition)"
                )
        return wave

    def _closure_fixpoint(
        self, work: List[_Member], *, timed: bool
    ) -> List[_Member]:
        """Reachability over hidden moves (with delays iff ``timed``).

        Breadth first, wave by wave: each admitted member is expanded by
        one ``zone_expand`` call over its discrete state's hidden-move
        table, and the successors join the next wave grouped by source
        state, then move, then member.
        """
        counters.inc("estimate.closures")
        if len(work) == 1:
            # One member and no hidden move: the closure is the member.
            member = work[0]
            if (
                self.max_states >= 1
                and not member.zone.is_empty()
                and not self._steps(member.locs, member.vars).hidden
            ):
                counters.observe("estimate.closure_members", 1)
                return [member]
        expand = _backends.active().zone_expand
        seen: Dict[tuple, _Antichain] = {}
        retained = [0]
        frontier = work
        while frontier:
            wave = self._admit(seen, frontier, retained)
            frontier = []
            for (locs, vars), group in wave:
                table = self._steps(locs, vars).closure_table(timed)
                if not table.plans:
                    continue
                counters.inc("estimate.expansions", len(group))
                rows = []
                for member in group:
                    out, ok = expand(member.zone.m, table)
                    rows.append((out, ok.tolist()))
                for x, (new_locs, new_vars) in enumerate(table.targets):
                    for out, ok in rows:
                        if ok[x]:
                            frontier.append(
                                _Member(new_locs, new_vars, DBM(out[x]))
                            )
        out = [
            _Member(locs, vars, zone)
            for (locs, vars), chain in seen.items()
            for zone in chain.zones
        ]
        counters.observe("estimate.closure_members", len(out))
        return out

    def _instant_closure(self, members: List[_Member]) -> List[_Member]:
        """Closure under hidden moves at the current instant (no delay)."""
        return self._closure_fixpoint(members, timed=False)

    def _delayed_frontier(self, members: List[_Member]) -> List[_Member]:
        """Members with the elapsed clock reset, then delay-closed."""
        successor = _backends.active().zone_successor
        out: List[_Member] = []
        for m in members:
            zone = successor(m.zone.m, self._frontier_plan(m.locs, m.vars))
            if zone is not None:
                out.append(_Member(m.locs, m.vars, DBM(zone)))
        return out

    def _timed_closure(self) -> List[_Member]:
        """Closure under delays and hidden moves, elapsed clock reset first.

        Memoized until the state set changes — the monitors ask for the
        quiescence bound, then advance through the same closure, and may
        probe several delays against one state set; each of those reuses
        the memo.  Only :meth:`advance` / :meth:`observe` /
        :meth:`observe_move` / :meth:`reset` invalidate (they change the
        state set); rescaling updates the memo in place instead of
        dropping it (:meth:`_ensure_scale`).
        """
        if self._closure is None:
            counters.inc("estimate.timed_closures")
            self._closure = self._closure_fixpoint(
                self._delayed_frontier(self.states), timed=True
            )
        return self._closure

    # ------------------------------------------------------------------
    # The monitor-facing operations
    # ------------------------------------------------------------------

    def max_quiescence(self) -> Tuple[Optional[Fraction], bool]:
        """Sup of durations reachable without an observable action.

        Returns ``(bound, strict)``; bound ``None`` means silence is
        allowed forever.
        """
        closure = self._timed_closure()
        if not closure:
            return None, False
        # The largest encoded bound is the largest value, non-strict
        # before strict.
        tdx = self.tdx
        enc = max(int(member.zone.m[tdx, 0]) for member in closure)
        if enc >= INF:
            return None, False
        value, strict = decode(enc)
        return Fraction(value, self.scale), strict

    def advance(self, d: Fraction) -> bool:
        """Extend the trace by a silent delay of exactly ``d``.

        False iff no member admits a hidden-move interleaving of duration
        ``d`` (a quiescence violation for the monitors).
        """
        if d < 0:
            raise ValueError("negative delay")
        if d == 0:
            return bool(self.states)
        self._ensure_scale(d)
        ticks = int(d * self.scale)
        try:
            pin = [(self.tdx, 0, le(ticks)), (0, self.tdx, le(-ticks))]
        except ValueError as err:  # delay horizon beyond the DBM range
            raise EstimateLimit(str(err)) from err
        result: List[_Member] = []
        for member in self._timed_closure():
            zone = member.zone.constrained(pin)
            if not zone.is_empty():
                result.append(_Member(member.locs, member.vars, zone))
        if not result:
            return False
        self.states = result
        self._closure = None
        self._notify()
        return True

    def _observed(self, matched: List[_Member]) -> bool:
        """Make the instant closure of ``matched`` the new state set."""
        if not matched:
            return False
        self.states = self._instant_closure(matched)
        self._closure = None
        self._notify()
        return True

    def observe(
        self, label: str, direction: str, updates: Optional[Sequence] = None
    ) -> bool:
        """Extend the trace by an observed action; False iff disallowed."""
        decls = self.system.decls
        successor = _backends.active().zone_successor
        matched: List[_Member] = []
        for (locs, vars), group in self._grouped(self.states).items():
            if updates:
                vars = apply_var_updates(decls, vars, updates)
            for (new_locs, new_vars), plan in self._steps(locs, vars).labelled(
                label, direction
            ):
                counters.inc("estimate.posts", len(group))
                for member in group:
                    zone = successor(member.zone.m, plan)
                    if zone is not None:
                        matched.append(_Member(new_locs, new_vars, DBM(zone)))
        return self._observed(matched)

    def observe_move(self, move: Move) -> bool:
        """Extend the trace by one *specific* move (not just its label).

        Used when the observer knows exactly which composed move fired —
        e.g. the tester's own environment-chosen input, whose
        value-passing variant matters; label-level :meth:`observe` would
        keep successors of every same-label variant.
        """
        system = self.system
        successor = _backends.active().zone_successor
        matched: List[_Member] = []
        for (locs, vars), group in self._grouped(self.states).items():
            target, plan = system.step_plan(locs, vars, move)
            if target is None:
                continue
            plan = plan.scaled(self.scale).bare()
            counters.inc("estimate.posts", len(group))
            for member in group:
                zone = successor(member.zone.m, plan)
                if zone is not None:
                    matched.append(_Member(target[0], target[1], DBM(zone)))
        return self._observed(matched)

    def enabled_labels(self, direction: str) -> List[str]:
        """Labels of ``direction`` moves enabled in some member right now.

        Per (discrete state, move) the probe stops at the first member
        with a nonempty discrete post.
        """
        successor = _backends.active().zone_successor
        labels: set = set()
        for (locs, vars), group in self._grouped(self.states).items():
            for label, plan in self._steps(locs, vars).directed(direction):
                if label in labels:
                    continue
                for member in group:
                    counters.inc("estimate.enable_probes")
                    if successor(member.zone.m, plan) is not None:
                        labels.add(label)
                        break
        return sorted(labels)

    def allowed_outputs(self) -> List[str]:
        return self.enabled_labels("output")

    def describe(self) -> str:
        sizes = {}
        for member in self.states:
            names = self.system.network.location_names(member.locs)
            key = ",".join(names)
            sizes[key] = sizes.get(key, 0) + 1
        body = "; ".join(f"{k} x{n}" if n > 1 else k for k, n in sorted(sizes.items()))
        return f"estimate[{len(self.states)}: {body}]"


__all__ = [
    "EstimateLimit",
    "StateEstimate",
    "apply_var_updates",
]
