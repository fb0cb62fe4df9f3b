"""Exact-rational reference versions of the concrete-valuation tests.

The library compares clock valuations as integer numerators over one
shared denominator (``repro.dbm.scale``).  These are the straightforward
``Fraction`` versions the integer code replaced: every difference and
slack is an exact rational, compared against the decoded bound.
:class:`ReferenceConcreteState` is the concrete state as a frozen
dataclass whose ``Fraction`` clocks are its identity, which
``repro.semantics.state.ConcreteState`` (integer numerators over one
reduced denominator) replaced.  The property tests in
``tests/test_integer_valuations.py`` check the library against them;
nothing in ``src/`` uses them.
"""

from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Tuple

from repro.dbm import INF, DBM, Federation, decode
from repro.semantics.system import DelayInterval


@dataclass(frozen=True)
class ReferenceConcreteState:
    """(location vector, variable values, ``Fraction`` clock valuation)."""

    locs: Tuple[int, ...]
    vars: Tuple[int, ...]
    clocks: Tuple[Fraction, ...]

    @property
    def key(self):
        return (self.locs, self.vars)

    def delayed(self, d: Fraction) -> "ReferenceConcreteState":
        """The state after ``d`` time units (clocks advance together)."""
        if d < 0:
            raise ValueError("negative delay")
        if d == 0:
            return self
        new_clocks = (Fraction(0),) + tuple(c + d for c in self.clocks[1:])
        return ReferenceConcreteState(self.locs, self.vars, new_clocks)

    def in_zone(self, zone: DBM) -> bool:
        return contains(zone, self.clocks)


def satisfies(difference, enc: int) -> bool:
    """Whether a concrete difference (int/Fraction) satisfies a bound."""
    if enc >= INF:
        return True
    value, strict = decode(enc)
    return difference < value if strict else difference <= value


def _value(valuation, k: int) -> Fraction:
    return Fraction(valuation[k]) if k else Fraction(0)


def contains(zone: DBM, valuation: Sequence) -> bool:
    """``DBM.contains``: every off-diagonal bound holds, entry 0 is 0."""
    if zone.is_empty():
        return False
    for i in range(zone.dim):
        for j in range(zone.dim):
            if i != j and not satisfies(
                _value(valuation, i) - _value(valuation, j), int(zone.m[i, j])
            ):
                return False
    return True


def fed_contains(fed: Federation, valuation: Sequence) -> bool:
    """``Federation.contains``: some member zone contains the valuation."""
    return any(contains(zone, valuation) for zone in fed.zones)


def zone_delay_interval(zone: DBM, clocks: Sequence) -> Optional[DelayInterval]:
    """Delays ``d >= 0`` with ``clocks + d ∈ zone`` (None if never)."""
    if zone.is_empty():
        return None
    lo, lo_strict = Fraction(0), False
    hi: Optional[Fraction] = None
    hi_strict = False
    for i in range(zone.dim):
        for j in range(zone.dim):
            enc = int(zone.m[i, j])
            if i == j or enc >= INF:
                continue
            value, strict = decode(enc)
            vi, vj = _value(clocks, i), _value(clocks, j)
            if i and j:
                if vi - vj > value or (vi - vj == value and strict):
                    return None
            elif j == 0:
                slack = value - vi
                if hi is None or slack < hi or (slack == hi and strict):
                    hi, hi_strict = slack, strict
            else:
                need = -value - vj
                if need > lo or (need == lo and strict):
                    lo, lo_strict = need, strict
    interval = DelayInterval(lo, lo_strict, hi, hi_strict)
    return None if interval.is_empty() else interval


def max_delay(system, state):
    """``System.max_delay``: the tightest invariant upper bound's slack."""
    if not system.can_delay(state.locs):
        return Fraction(0), False
    zone = system.invariant_zone(state.locs, state.vars)
    hi: Optional[Fraction] = None
    hi_strict = False
    for i in range(1, system.dim):
        enc = int(zone.m[i, 0])
        if enc >= INF:
            continue
        value, strict = decode(enc)
        slack = value - state.clocks[i]
        if hi is None or slack < hi or (slack == hi and strict):
            hi, hi_strict = slack, strict
    return hi, hi_strict


def enabled_interval(system, state, move) -> Optional[DelayInterval]:
    """``System.enabled_interval``: guards folded into the invariant limit."""
    lo, lo_strict = Fraction(0), False
    hi, hi_strict = max_delay(system, state)
    for i, j, enc in system.guard_constraints(move, state.vars):
        if enc >= INF:
            continue
        value, strict = decode(enc)
        vi, vj = _value(state.clocks, i), _value(state.clocks, j)
        if i and j:
            if vi - vj > value or (vi - vj == value and strict):
                return None
        elif j == 0:
            slack = value - vi
            if hi is None or slack < hi or (slack == hi and strict):
                hi, hi_strict = slack, strict
        else:
            need = -value - vj
            if need > lo or (need == lo and strict):
                lo, lo_strict = need, strict
    interval = DelayInterval(lo, lo_strict, hi, hi_strict)
    return None if interval.is_empty() else interval


def move_options(system, state, mode="closed", directions=None):
    """``System.move_options``: the moves of ``moves_from`` whose discrete
    part does not block, with the delays enabling them."""
    options = []
    for move in system.moves_from(state.locs, state.vars, mode):
        if directions is not None and move.direction not in directions:
            continue
        new_vars = system.apply_move_vars(state.vars, move)
        if new_vars is None or not system.invariant_int_ok(
            system.target_locs(state.locs, move), new_vars
        ):
            continue
        interval = enabled_interval(system, state, move)
        if interval is not None:
            options.append((move, interval))
    return options


def enabled_now(system, state, mode="closed", directions=None):
    """``System.enabled_now``: the options whose interval holds delay 0."""
    return [
        (move, interval)
        for move, interval in move_options(system, state, mode, directions)
        if interval.contains(Fraction(0))
    ]


def fire(system, state, move):
    """``System.fire``: enabled at delay 0, then resets and the target
    invariant."""
    interval = enabled_interval(system, state, move)
    if interval is None or not interval.contains(Fraction(0)):
        return None
    new_vars = system.apply_move_vars(state.vars, move)
    if new_vars is None:
        return None
    new_locs = system.target_locs(state.locs, move)
    if not system.invariant_int_ok(new_locs, new_vars):
        return None
    clocks = list(state.clocks)
    for clock, value in system.resets_of(move):
        clocks[clock] = Fraction(value)
    if not contains(system.invariant_zone(new_locs, new_vars), clocks):
        return None
    return type(state)(new_locs, new_vars, tuple(clocks))
