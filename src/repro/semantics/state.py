"""Symbolic and concrete states of a network.

* A **discrete state** is the pair (location vector, variable valuation),
  both plain tuples of ints — hashable and cheap to compare.
* A **symbolic state** adds a zone (DBM) over the network's clocks.
* A **concrete state** adds an exact rational clock valuation instead;
  concrete states drive test execution and simulation.  The valuation is
  kept as integer numerators over one reduced denominator
  (:attr:`ConcreteState.scaled`, the :func:`repro.dbm.scale` form), which
  is its identity: delays, resets, zone tests and delay intervals all run
  on those integers, and ``clocks`` (Fractions, what traces print) is
  derived from them on first read.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Tuple

from ..dbm import DBM, scale

DiscreteKey = Tuple[Tuple[int, ...], Tuple[int, ...]]


@dataclass(frozen=True)
class SymbolicState:
    """(location vector, variable values, zone)."""

    locs: Tuple[int, ...]
    vars: Tuple[int, ...]
    zone: DBM

    @property
    def key(self) -> DiscreteKey:
        return (self.locs, self.vars)

    def is_empty(self) -> bool:
        """True iff the zone part is empty."""
        return self.zone.is_empty()

    def __repr__(self) -> str:
        return f"SymbolicState(locs={self.locs}, vars={self.vars}, zone={self.zone!r})"


class ConcreteState:
    """(location vector, variable values, exact clock valuation).

    ``clocks[0]`` is the reference clock and always 0; real clocks are at
    indices 1..dim-1, mirroring DBM layout.  The state is immutable and
    stores the valuation as :attr:`scaled` ``(nums, den)``: ``clocks[k]
    == nums[k] / den`` with ``den`` the least common denominator, so two
    states are equal (and hash alike) iff their locations, variables and
    ``clocks`` are equal.
    """

    __slots__ = ("locs", "vars", "scaled", "_clocks")

    locs: Tuple[int, ...]
    vars: Tuple[int, ...]
    #: ``(nums, den)``: the valuation as integer numerators over one
    #: reduced denominator, ``nums[0]`` (the reference clock) 0.
    scaled: Tuple[Tuple[int, ...], int]

    def __init__(self, locs: Tuple[int, ...], vars: Tuple[int, ...], clocks) -> None:
        _init(self, locs, vars, scale(clocks))

    @classmethod
    def _of(
        cls,
        locs: Tuple[int, ...],
        vars: Tuple[int, ...],
        nums: Tuple[int, ...],
        den: int,
    ) -> "ConcreteState":
        """A state from a valuation in scaled form, reduced here."""
        if den > 1:
            g = gcd(den, *nums)
            if g > 1:
                nums = tuple(n // g for n in nums)
                den //= g
        state = object.__new__(cls)
        _init(state, locs, vars, (nums, den))
        return state

    @property
    def key(self) -> DiscreteKey:
        return (self.locs, self.vars)

    @property
    def clocks(self) -> Tuple[Fraction, ...]:
        """The valuation as Fractions (index 0 is the reference clock)."""
        clocks = self._clocks
        if clocks is None:
            nums, den = self.scaled
            clocks = (Fraction(0),) + tuple(Fraction(n, den) for n in nums[1:])
            _set(self, "_clocks", clocks)
        return clocks

    def delayed(self, d: Fraction) -> "ConcreteState":
        """The state after ``d`` time units (clocks advance together)."""
        if d < 0:
            raise ValueError("negative delay")
        if d == 0:
            return self
        if d.__class__ is not int and not isinstance(d, Fraction):
            d = Fraction(d)
        nums, den = self.scaled
        d_num, d_den = d.numerator, d.denominator
        if den % d_den:
            lcm = den // gcd(den, d_den) * d_den
            factor, shift = lcm // den, d_num * (lcm // d_den)
            nums = (0, *[n * factor + shift for n in nums[1:]])
            den = lcm
        else:
            shift = d_num * (den // d_den)
            nums = (0, *[n + shift for n in nums[1:]])
        return self._of(self.locs, self.vars, nums, den)

    def in_zone(self, zone: DBM) -> bool:
        return zone.contains_scaled(*self.scaled)

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"ConcreteState is immutable (cannot set {name!r})")

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (
            self.scaled == other.scaled
            and self.locs == other.locs
            and self.vars == other.vars
        )

    def __hash__(self) -> int:
        return hash((self.locs, self.vars, self.scaled))

    def __reduce__(self):
        return (self.__class__, (self.locs, self.vars, self.clocks))

    def __repr__(self) -> str:
        return (
            f"ConcreteState(locs={self.locs!r}, vars={self.vars!r},"
            f" clocks={self.clocks!r})"
        )


_set = object.__setattr__


def _init(state: ConcreteState, locs, vars, scaled) -> None:
    _set(state, "locs", locs)
    _set(state, "vars", vars)
    _set(state, "scaled", scaled)
    _set(state, "_clocks", None)


def zero_valuation(dim: int) -> Tuple[Fraction, ...]:
    """The all-zero clock valuation (index 0 = reference clock)."""
    return tuple(Fraction(0) for _ in range(dim))
