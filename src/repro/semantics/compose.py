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

**Batched execution.**  Members sharing a discrete state ``(locs, vars)``
are indistinguishable to the model — same moves, same guard/invariant
encodings, same resets — so every per-member operation of the closure is
uniform across such a group and runs on the *stacked* representation
(:mod:`repro.dbm.stack`): one ``(k, dim, dim)`` array per group, one
batched guard/reset/invariant/delay pipeline per internal move
(:func:`repro.dbm.stack.hidden_post_step`), one broadcast
inclusion-matrix comparison for frontier subsumption
(:func:`repro.dbm.stack.subsume_frontier`), one vectorized rescale
(:func:`repro.dbm.stack.scale_stack`).  Groups below
:data:`repro.dbm.stack.BATCH_MIN` members (or the ``batch_min``
argument) take the per-zone path, and the per-zone path is also kept
wholesale (``batch=False``) as the differential reference the
``estimate`` fuzz check cross-checks the kernels against.

Both paths use the same *pruning* subsumption — a newly admitted zone
evicts the retained zones it strictly dominates — so the retained set at
the fixpoint is the antichain of maximal reachable zones, which is
processing-order independent: scalar and batched closures agree not just
on answers but on the final member sets, and the ``max_states`` budget is
checked against the same post-pruning count.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..dbm import DBM
from ..dbm import stack as _sk
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


@dataclass(frozen=True)
class _Member:
    """One element of the state set (zone padded with the elapsed clock)."""

    locs: Tuple[int, ...]
    vars: Tuple[int, ...]
    zone: DBM


class StateEstimate:
    """The set of spec states compatible with the observed timed trace."""

    def __init__(
        self,
        system: System,
        mode: str = PARTIAL,
        *,
        max_states: int = 256,
        batch: bool = True,
        batch_min: Optional[int] = None,
    ):
        self.system = system
        self.mode = mode
        #: Index of the padded elapsed-time clock.
        self.tdx = system.dim
        self.max_states = max_states
        # Batched execution: ``batch=False`` forces the per-zone
        # reference path; the batched path itself falls back to per-zone
        # work for groups below ``batch_min`` members.
        self.batch = bool(batch)
        self.batch_min = (
            _sk.BATCH_MIN if batch_min is None else max(1, batch_min)
        )
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
        zone = zone.constrained(
            self._scaled(system.invariant_constraints(locs, vars))
        )
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

    def _scaled(self, constraints) -> list:
        if self.scale == 1:
            return list(constraints)
        k = self.scale
        return [
            (i, j, enc if enc >= INF else (((enc >> 1) * k) << 1) | (enc & 1))
            for (i, j, enc) in constraints
        ]

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
        states = self._rescaled(self.states, factor)
        closure = (
            self._rescaled(self._closure, factor)
            if self._closure is not None
            else None
        )
        self.states = states
        self._closure = closure
        self.scale = new_scale

    def _rescaled(self, members: List[_Member], factor: int) -> List[_Member]:
        """Members with every zone bound multiplied by ``factor``."""
        if self.batch and len(members) >= self.batch_min:
            stacked = np.stack([m.zone.m for m in members])
            if not _sk.scale_stack(stacked, factor):
                raise EstimateLimit(
                    "rescaled zone constant exceeds the supported DBM range"
                    f" (±{MAX_BOUND_CONST}); the observed delays'"
                    " denominators are too varied for this model's constants"
                )
            return [
                _Member(m.locs, m.vars, DBM(stacked[i]))
                for i, m in enumerate(members)
            ]
        return [
            _Member(m.locs, m.vars, _scaled_zone(m.zone, factor))
            for m in members
        ]

    # ------------------------------------------------------------------
    # Padded-zone semantics pieces
    # ------------------------------------------------------------------

    def _internal_moves(
        self, locs: Tuple[int, ...], vars: Tuple[int, ...]
    ) -> List[Move]:
        return [
            move
            for move in self.system.moves_from(locs, vars, self.mode)
            if move.direction == "internal"
        ]

    @staticmethod
    def _grouped(members: Iterable[_Member]) -> Dict[tuple, List[_Member]]:
        """Members bucketed by discrete state (the batching unit)."""
        groups: Dict[tuple, List[_Member]] = {}
        for member in members:
            groups.setdefault((member.locs, member.vars), []).append(member)
        return groups

    def _post_group(
        self,
        locs: Tuple[int, ...],
        vars: Tuple[int, ...],
        zones: List[DBM],
        move: Move,
        *,
        delayed: bool,
    ) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...], List[DBM]]]:
        """One move's successor over every zone of a discrete-state group.

        The group shares ``(locs, vars)``, so the move's variable update,
        guard/invariant encodings, resets, and delay admissibility are
        computed once; only the zone pipeline runs per member — through
        the stacked kernel (:func:`repro.dbm.stack.hidden_post_step`)
        when the group is large enough, per zone otherwise.  Returns
        ``(new_locs, new_vars, nonempty successor zones)``, or None when
        the move is variable-infeasible for this discrete state.
        """
        system = self.system
        new_vars = system.apply_move_vars(vars, move)
        if new_vars is None:
            return None
        new_locs = system.target_locs(locs, move)
        if not system.invariant_int_ok(new_locs, new_vars):
            return None
        guard = self._scaled(system.guard_constraints(move, vars))
        invariant = self._scaled(system.invariant_constraints(new_locs, new_vars))
        resets = system.resets_of(move)
        delay = delayed and system.can_delay(new_locs)
        if self.batch and len(zones) >= self.batch_min:
            counters.inc("estimate.batched_groups")
            stacked = np.stack([z.m for z in zones])
            keep = _sk.hidden_post_step(
                stacked,
                guard,
                [clock for clock, _ in resets],
                [(clock, value * self.scale) for clock, value in resets if value],
                invariant,
                delay=delay,
            )
            # Copy surviving rows out of the group buffer: a view would
            # pin the whole (k, dim, dim) stack for as long as the few
            # kept members live.
            return (
                new_locs,
                new_vars,
                [DBM(stacked[i].copy()) for i in np.flatnonzero(keep)],
            )
        counters.inc("estimate.scalar_groups")
        out: List[DBM] = []
        for zone in zones:
            zone = zone.constrained(guard)
            if zone.is_empty():
                continue
            if resets:
                zone = zone.assign_clocks(
                    [(clock, value * self.scale) for clock, value in resets]
                )
            zone = zone.constrained(invariant)
            if zone.is_empty():
                continue
            if delay:
                zone = zone.up().constrained(invariant)
            out.append(zone)
        return new_locs, new_vars, out

    def _group_enables(
        self,
        locs: Tuple[int, ...],
        vars: Tuple[int, ...],
        zones: List[DBM],
        move: Move,
    ) -> bool:
        """Existence-only probe: is the move enabled in *some* member?

        The early-exit twin of :meth:`_post_group` for
        :meth:`enabled_labels`, which needs one surviving zone, never the
        zones themselves.  Shared encodings are computed once per group;
        then the batched path asks :func:`repro.dbm.stack.any_hidden_post`
        (no copy-out, no delay step — resets cannot empty a nonempty zone
        and emptiness is delay-invariant) and the per-zone path
        short-circuits at the first survivor, with the same shortcut:
        when the target state carries no clock invariant, surviving the
        guard already proves enabledness.
        """
        system = self.system
        new_vars = system.apply_move_vars(vars, move)
        if new_vars is None:
            return False
        new_locs = system.target_locs(locs, move)
        if not system.invariant_int_ok(new_locs, new_vars):
            return False
        guard = self._scaled(system.guard_constraints(move, vars))
        invariant = self._scaled(
            system.invariant_constraints(new_locs, new_vars)
        )
        resets = system.resets_of(move)
        if self.batch and len(zones) >= self.batch_min:
            counters.inc("estimate.enable_probes_batched")
            stacked = np.stack([z.m for z in zones])
            return _sk.any_hidden_post(
                stacked,
                guard,
                [clock for clock, _ in resets],
                [(clock, value * self.scale) for clock, value in resets if value],
                invariant,
            )
        counters.inc("estimate.enable_probes_scalar")
        for zone in zones:
            zone = zone.constrained(guard)
            if zone.is_empty():
                continue
            if not invariant:
                return True
            if resets:
                zone = zone.assign_clocks(
                    [(clock, value * self.scale) for clock, value in resets]
                )
            if not zone.constrained(invariant).is_empty():
                return True
        return False

    def _post(self, member: _Member, move: Move) -> Optional[_Member]:
        """Discrete successor on padded zones (mirrors ``System.post``)."""
        system = self.system
        new_vars = system.apply_move_vars(member.vars, move)
        if new_vars is None:
            return None
        new_locs = system.target_locs(member.locs, move)
        if not system.invariant_int_ok(new_locs, new_vars):
            return None
        zone = member.zone.constrained(
            self._scaled(system.guard_constraints(move, member.vars))
        )
        if zone.is_empty():
            return None
        resets = system.resets_of(move)
        if resets:
            zone = zone.assign_clocks(
                [(clock, value * self.scale) for clock, value in resets]
            )
        zone = zone.constrained(
            self._scaled(system.invariant_constraints(new_locs, new_vars))
        )
        if zone.is_empty():
            return None
        return _Member(new_locs, new_vars, zone)

    def _delayed(self, member: _Member) -> _Member:
        """Delay closure of a member (elapsed clock advances with time)."""
        system = self.system
        if not system.can_delay(member.locs):
            return member
        zone = member.zone.up().constrained(
            self._scaled(system.invariant_constraints(member.locs, member.vars))
        )
        return _Member(member.locs, member.vars, zone)

    # ------------------------------------------------------------------
    # Closures
    # ------------------------------------------------------------------

    def _admit(
        self,
        seen: Dict[tuple, List[DBM]],
        members: Iterable[_Member],
        retained: List[int],
    ) -> List[_Member]:
        """Admit a frontier wave into the retained sets, with pruning.

        A new zone included in a retained (or earlier-admitted) zone of
        the same discrete state is dropped; a retained zone strictly
        dominated by an admitted one is evicted.  Retention is therefore
        an antichain per discrete state, and — because the zone operators
        are inclusion-monotone, so a dominating zone's successors cover a
        dominated zone's — the fixpoint's retained sets are independent
        of processing order: the batched and per-zone paths agree on the
        final member sets, not just on the monitor answers.  The
        ``max_states`` budget is checked against the post-pruning total
        carried in the one-cell ``retained`` count.  Returns the admitted
        members (the next expansion wave).
        """
        kept: List[_Member] = []
        for (locs, vars), group in self._grouped(members).items():
            zones = seen.setdefault((locs, vars), [])
            fresh = [m.zone for m in group if not m.zone.is_empty()]
            if not fresh:
                continue
            if self.batch and len(fresh) >= self.batch_min:
                new_stack = np.stack([z.m for z in fresh])
                seen_stack = np.stack([z.m for z in zones]) if zones else None
                keep, drop_seen = _sk.subsume_frontier(new_stack, seen_stack)
                if zones and drop_seen.any():
                    retained[0] -= int(drop_seen.sum())
                    zones[:] = [
                        z for z, dropped in zip(zones, drop_seen) if not dropped
                    ]
                for idx in np.flatnonzero(keep):
                    zones.append(fresh[idx])
                    kept.append(_Member(locs, vars, fresh[idx]))
                retained[0] += int(keep.sum())
            else:
                for zone in fresh:
                    if any(old.includes(zone) for old in zones):
                        continue
                    survivors = [old for old in zones if not zone.includes(old)]
                    retained[0] -= len(zones) - len(survivors)
                    survivors.append(zone)
                    zones[:] = survivors
                    retained[0] += 1
                    kept.append(_Member(locs, vars, zone))
            if retained[0] > self.max_states:
                raise EstimateLimit(
                    f"hidden-move closure exceeded {self.max_states} symbolic"
                    f" states (raise max_states or simplify the partition)"
                )
        return kept

    def _closure_fixpoint(
        self, work: List[_Member], *, timed: bool
    ) -> List[_Member]:
        """Reachability over hidden moves (with delays iff ``timed``).

        Batched mode expands wave by wave: each wave is grouped by
        discrete state and every internal move fires over a whole group
        through one stacked-kernel call.  Scalar mode (``batch=False``)
        keeps the original member-at-a-time LIFO loop as the differential
        reference.  Both share :meth:`_admit`, so retention, budget
        accounting, and the resulting fixpoint agree.
        """
        counters.inc("estimate.closures")
        seen: Dict[tuple, List[DBM]] = {}
        retained = [0]
        if self.batch:
            frontier = list(work)
            while frontier:
                wave = self._admit(seen, frontier, retained)
                frontier = []
                for (locs, vars), group in self._grouped(wave).items():
                    zones = [m.zone for m in group]
                    for move in self._internal_moves(locs, vars):
                        res = self._post_group(
                            locs, vars, zones, move, delayed=timed
                        )
                        if res is None:
                            continue
                        new_locs, new_vars, new_zones = res
                        frontier.extend(
                            _Member(new_locs, new_vars, zone)
                            for zone in new_zones
                        )
        else:
            stack = list(work)
            while stack:
                member = stack.pop()
                if not self._admit(seen, [member], retained):
                    continue
                for move in self._internal_moves(member.locs, member.vars):
                    nxt = self._post(member, move)
                    if nxt is not None:
                        stack.append(self._delayed(nxt) if timed else nxt)
        out = [
            _Member(locs, vars, zone)
            for (locs, vars), zones in seen.items()
            for zone in zones
        ]
        counters.observe("estimate.closure_members", len(out))
        return out

    def _instant_closure(self, members: List[_Member]) -> List[_Member]:
        """Closure under hidden moves at the current instant (no delay)."""
        return self._closure_fixpoint(list(members), timed=False)

    def _delayed_frontier(self, members: List[_Member]) -> List[_Member]:
        """Members with the elapsed clock reset, then delay-closed."""
        out: List[_Member] = []
        for (locs, vars), group in self._grouped(members).items():
            if self.batch and len(group) >= self.batch_min:
                stacked = np.stack([m.zone.m for m in group])
                _sk.reset(stacked, [self.tdx])
                if self.system.can_delay(locs):
                    _sk.up(stacked)
                    invariant = self._scaled(
                        self.system.invariant_constraints(locs, vars)
                    )
                    if invariant:
                        # Cannot empty a nonempty zone (the zone already
                        # satisfied its invariant before delaying).
                        _sk.constrain(stacked, invariant)
                out.extend(
                    _Member(locs, vars, DBM(stacked[i]))
                    for i in range(stacked.shape[0])
                )
            else:
                out.extend(
                    self._delayed(
                        _Member(m.locs, m.vars, m.zone.reset([self.tdx]))
                    )
                    for m in group
                )
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
        best: Optional[Fraction] = None
        best_strict = False
        for member in self._timed_closure():
            enc = int(member.zone.m[self.tdx, 0])
            if enc >= INF:
                return None, False
            value, strict = decode(enc)
            bound = Fraction(value, self.scale)
            if best is None or bound > best or (bound == best and not strict):
                best, best_strict = bound, strict
        return best, best_strict

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
        for (locs, vars), group in self._grouped(self._timed_closure()).items():
            if self.batch and len(group) >= self.batch_min:
                stacked = np.stack([m.zone.m for m in group])
                keep = _sk.constrain(stacked, pin)
                result.extend(
                    _Member(locs, vars, DBM(stacked[i].copy()))
                    for i in np.flatnonzero(keep)
                )
            else:
                for member in group:
                    zone = member.zone.constrained(pin)
                    if not zone.is_empty():
                        result.append(_Member(locs, vars, zone))
        if not result:
            return False
        self.states = result
        self._closure = None
        self._notify()
        return True

    def observe(
        self, label: str, direction: str, updates: Optional[Sequence] = None
    ) -> bool:
        """Extend the trace by an observed action; False iff disallowed."""
        decls = self.system.decls
        matched: List[_Member] = []
        for (locs, vars), group in self._grouped(self.states).items():
            if updates:
                vars = apply_var_updates(decls, vars, updates)
            zones = [m.zone for m in group]
            for move in self.system.moves_from(locs, vars, self.mode):
                if move.label != label or move.direction != direction:
                    continue
                res = self._post_group(locs, vars, zones, move, delayed=False)
                if res is None:
                    continue
                new_locs, new_vars, new_zones = res
                matched.extend(
                    _Member(new_locs, new_vars, zone) for zone in new_zones
                )
        if not matched:
            return False
        self.states = self._instant_closure(matched)
        self._closure = None
        self._notify()
        return True

    def observe_move(self, move: Move) -> bool:
        """Extend the trace by one *specific* move (not just its label).

        Used when the observer knows exactly which composed move fired —
        e.g. the tester's own environment-chosen input, whose
        value-passing variant matters; label-level :meth:`observe` would
        keep successors of every same-label variant.
        """
        matched: List[_Member] = []
        for (locs, vars), group in self._grouped(self.states).items():
            res = self._post_group(
                locs, vars, [m.zone for m in group], move, delayed=False
            )
            if res is None:
                continue
            new_locs, new_vars, new_zones = res
            matched.extend(
                _Member(new_locs, new_vars, zone) for zone in new_zones
            )
        if not matched:
            return False
        self.states = self._instant_closure(matched)
        self._closure = None
        self._notify()
        return True

    def enabled_labels(self, direction: str) -> List[str]:
        """Labels of ``direction`` moves enabled in some member right now.

        Runs the existence-only probe (:meth:`_group_enables`) instead of
        materialising successor zones: per (group, label) the probe stops
        at the first member with a nonempty post.
        """
        labels: set = set()
        for (locs, vars), group in self._grouped(self.states).items():
            zones = [m.zone for m in group]
            for move in self.system.moves_from(locs, vars, self.mode):
                if move.direction != direction or move.label in labels:
                    continue
                if self._group_enables(locs, vars, zones, move):
                    labels.add(move.label)
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
