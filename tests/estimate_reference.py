"""The per-zone reference state estimator.

:class:`repro.semantics.compose.StateEstimate` runs every step on plans
compiled once per discrete state and expands its hidden-move closure
breadth first, one ``zone_expand`` kernel call per member.  This is the
member-at-a-time estimator it replaced: a LIFO closure that applies each
move's guard, clock assignments, target invariant and delay as separate
zone operations, deriving the encodings from :class:`System` on every
step.  Both retain the antichain of maximal zones per discrete state, so
their state sets agree as *sets* at every fixpoint, while the order of
members and the transient retention differ.  The differential tests in
``tests/test_compose_batched.py`` check the library against it; nothing
in ``src/`` uses it.
"""

from fractions import Fraction
from math import gcd
from typing import Dict, List, Optional, Sequence, Tuple

from repro.dbm import DBM
from repro.dbm.bounds import INF, MAX_BOUND_CONST, decode, le
from repro.semantics.compose import (
    EstimateLimit,
    _Member,
    _scaled_zone,
    apply_var_updates,
)
from repro.semantics.system import PARTIAL, Move, System
from repro.ta.model import ModelError
from repro.util import counters


class ReferenceEstimate:
    """The set of spec states compatible with the observed timed trace."""

    def __init__(self, system: System, mode: str = PARTIAL, *, max_states: int = 256):
        self.system = system
        self.mode = mode
        self.tdx = system.dim
        self.max_states = max_states
        max_const = max([1] + system.network.max_constants())
        self._scale_cap = max(1, MAX_BOUND_CONST // (max_const + 1))
        self.scale = 1
        self.states: List[_Member] = []
        self._closure: Optional[List[_Member]] = None
        self.reset()

    def reset(self) -> None:
        system = self.system
        locs = system.network.initial_locations()
        vars = system.decls.initial_state()
        self.scale = 1
        zone = DBM.zero(self.tdx + 1).constrained(
            system.invariant_constraints(locs, vars)
        )
        self.states = self._closure_fixpoint([_Member(locs, vars, zone)], timed=False)
        if not self.states:
            raise ModelError("initial state violates an invariant")
        self._closure = None

    @property
    def size(self) -> int:
        return len(self.states)

    def _scaled(self, constraints) -> list:
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
            raise EstimateLimit(f"time scale {new_scale} exceeds the cap")
        factor = new_scale // self.scale
        states = [
            _Member(m.locs, m.vars, _scaled_zone(m.zone, factor)) for m in self.states
        ]
        closure = None
        if self._closure is not None:
            closure = [
                _Member(m.locs, m.vars, _scaled_zone(m.zone, factor))
                for m in self._closure
            ]
        self.states, self._closure, self.scale = states, closure, new_scale

    # ------------------------------------------------------------------
    # One zone operation at a time
    # ------------------------------------------------------------------

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

    def _closure_fixpoint(self, work: List[_Member], *, timed: bool) -> List[_Member]:
        """Member-at-a-time LIFO reachability over hidden moves."""
        seen: Dict[tuple, List[DBM]] = {}
        retained = 0
        stack = list(work)
        while stack:
            member = stack.pop()
            zone = member.zone
            zones = seen.setdefault((member.locs, member.vars), [])
            if zone.is_empty() or any(old.includes(zone) for old in zones):
                continue
            survivors = [old for old in zones if not zone.includes(old)]
            retained -= len(zones) - len(survivors)
            survivors.append(zone)
            zones[:] = survivors
            retained += 1
            if retained > self.max_states:
                raise EstimateLimit(f"hidden-move closure exceeded {self.max_states}")
            for move in self.system.moves_from(member.locs, member.vars, self.mode):
                if move.direction != "internal":
                    continue
                nxt = self._post(member, move)
                if nxt is not None:
                    stack.append(self._delayed(nxt) if timed else nxt)
        return [
            _Member(locs, vars, zone)
            for (locs, vars), zones in seen.items()
            for zone in zones
        ]

    def _timed_closure(self) -> List[_Member]:
        if self._closure is None:
            counters.inc("estimate.timed_closures")
            frontier = [
                self._delayed(_Member(m.locs, m.vars, m.zone.reset([self.tdx])))
                for m in self.states
            ]
            self._closure = self._closure_fixpoint(frontier, timed=True)
        return self._closure

    # ------------------------------------------------------------------
    # The monitor-facing operations
    # ------------------------------------------------------------------

    def max_quiescence(self) -> Tuple[Optional[Fraction], bool]:
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
        if d < 0:
            raise ValueError("negative delay")
        if d == 0:
            return bool(self.states)
        self._ensure_scale(d)
        ticks = int(d * self.scale)
        try:
            pin = [(self.tdx, 0, le(ticks)), (0, self.tdx, le(-ticks))]
        except ValueError as err:
            raise EstimateLimit(str(err)) from err
        result = []
        for member in self._timed_closure():
            zone = member.zone.constrained(pin)
            if not zone.is_empty():
                result.append(_Member(member.locs, member.vars, zone))
        if not result:
            return False
        self.states, self._closure = result, None
        return True

    def _observed(self, matched: List[_Member]) -> bool:
        if not matched:
            return False
        self.states = self._closure_fixpoint(matched, timed=False)
        self._closure = None
        return True

    def observe(
        self, label: str, direction: str, updates: Optional[Sequence] = None
    ) -> bool:
        matched = []
        for member in self.states:
            vars = member.vars
            if updates:
                vars = apply_var_updates(self.system.decls, vars, updates)
            source = _Member(member.locs, vars, member.zone)
            for move in self.system.moves_from(member.locs, vars, self.mode):
                if move.label == label and move.direction == direction:
                    nxt = self._post(source, move)
                    if nxt is not None:
                        matched.append(nxt)
        return self._observed(matched)

    def observe_move(self, move: Move) -> bool:
        matched = [
            nxt
            for member in self.states
            if (nxt := self._post(member, move)) is not None
        ]
        return self._observed(matched)

    def enabled_labels(self, direction: str) -> List[str]:
        labels = set()
        for member in self.states:
            for move in self.system.moves_from(member.locs, member.vars, self.mode):
                if move.direction == direction and self._post(member, move) is not None:
                    labels.add(move.label)
        return sorted(labels)
