"""Symbolic and concrete states of a network.

* A **discrete state** is the pair (location vector, variable valuation),
  both plain tuples of ints — hashable and cheap to compare.
* A **symbolic state** adds a zone (DBM) over the network's clocks.
* A **concrete state** adds an exact rational clock valuation instead;
  concrete states drive test execution and simulation.  Its ``clocks``
  (Fractions) are its identity and what traces print; zone tests and
  delay intervals run on :attr:`ConcreteState.scaled`, the same
  valuation as integer numerators over one denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
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


@dataclass(frozen=True)
class ConcreteState:
    """(location vector, variable values, exact clock valuation).

    ``clocks[0]`` is the reference clock and always 0; real clocks are at
    indices 1..dim-1, mirroring DBM layout.
    """

    locs: Tuple[int, ...]
    vars: Tuple[int, ...]
    clocks: Tuple[Fraction, ...]

    @property
    def key(self) -> DiscreteKey:
        return (self.locs, self.vars)

    @cached_property
    def scaled(self) -> Tuple[Tuple[int, ...], int]:
        """``clocks`` in :func:`repro.dbm.scale` form, computed once."""
        return scale(self.clocks)

    def delayed(self, d: Fraction) -> "ConcreteState":
        """The state after ``d`` time units (clocks advance together)."""
        if d < 0:
            raise ValueError("negative delay")
        if d == 0:
            return self
        new_clocks = (Fraction(0),) + tuple(c + d for c in self.clocks[1:])
        return ConcreteState(self.locs, self.vars, new_clocks)

    def in_zone(self, zone: DBM) -> bool:
        return zone.contains_scaled(*self.scaled)


def zero_valuation(dim: int) -> Tuple[Fraction, ...]:
    """The all-zero clock valuation (index 0 = reference clock)."""
    return tuple(Fraction(0) for _ in range(dim))
