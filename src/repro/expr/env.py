"""Declarations and discrete-variable state.

A :class:`Declarations` table holds everything name resolution needs:
integer constants, bounded integer variables, bounded integer arrays,
clocks, and named index ranges (scalar-set types like ``BufferId``).

Variable values live in a flat immutable tuple (:class:`DiscreteState`
is just that tuple plus helper methods via the layout), which makes
discrete states hashable keys for passed-list lookups.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple


class DeclarationError(ValueError):
    """Raised on duplicate or inconsistent declarations."""


@dataclass(frozen=True)
class IntVar:
    name: str
    low: int
    high: int
    init: int
    slot: int

    def clamp_check(self, value: int) -> int:
        """Return ``value`` or raise OverflowError if out of range."""
        if not (self.low <= value <= self.high):
            raise OverflowError(
                f"assignment out of range: {self.name} := {value}"
                f" (declared int[{self.low},{self.high}])"
            )
        return value


@dataclass(frozen=True)
class IntArray:
    name: str
    size: int
    low: int
    high: int
    init: Tuple[int, ...]
    offset: int

    def clamp_check(self, value: int, index: int) -> int:
        """Bounds-check the index and range-check the value."""
        if not (0 <= index < self.size):
            raise IndexError(f"{self.name}[{index}] out of bounds (size {self.size})")
        if not (self.low <= value <= self.high):
            raise OverflowError(
                f"assignment out of range: {self.name}[{index}] := {value}"
                f" (declared int[{self.low},{self.high}])"
            )
        return value


class Declarations:
    """A mutable declaration table, frozen implicitly once states are built."""

    def __init__(self) -> None:
        self.constants: Dict[str, int] = {}
        self.int_vars: Dict[str, IntVar] = {}
        self.arrays: Dict[str, IntArray] = {}
        self.clocks: List[str] = []
        self.range_types: Dict[str, Tuple[int, int]] = {}
        #: Compiled closures of :mod:`repro.expr.eval`, keyed by content;
        #: emptied whenever a declaration is added.
        self.compiled: Dict[tuple, object] = {}
        self._slots = 0

    # ------------------------------------------------------------------
    # Declaring
    # ------------------------------------------------------------------

    def _check_fresh(self, name: str) -> None:
        self.compiled.clear()
        if (
            name in self.constants
            or name in self.int_vars
            or name in self.arrays
            or name in self.clocks
            or name in self.range_types
        ):
            raise DeclarationError(f"duplicate declaration of {name!r}")

    def add_constant(self, name: str, value: int) -> None:
        """Declare an integer constant."""
        self._check_fresh(name)
        self.constants[name] = int(value)

    def add_int(self, name: str, low: int = -(1 << 15), high: int = 1 << 15,
                init: int = 0) -> None:
        """Declare a bounded integer variable."""
        self._check_fresh(name)
        if not (low <= init <= high):
            raise DeclarationError(f"initial value of {name} outside range")
        self.int_vars[name] = IntVar(name, low, high, init, self._slots)
        self._slots += 1

    def add_array(self, name: str, size: int, low: int = -(1 << 15),
                  high: int = 1 << 15, init: Optional[Sequence[int]] = None) -> None:
        """Declare a fixed-size array of bounded integers."""
        self._check_fresh(name)
        if size <= 0:
            raise DeclarationError(f"array {name} must have positive size")
        values = tuple(init) if init is not None else tuple([0] * size)
        if len(values) != size:
            raise DeclarationError(f"array {name} initializer length mismatch")
        for v in values:
            if not (low <= v <= high):
                raise DeclarationError(f"initial value of {name} outside range")
        self.arrays[name] = IntArray(name, size, low, high, values, self._slots)
        self._slots += size

    def add_clock(self, name: str) -> int:
        """Declare a clock; returns its 1-based DBM index."""
        self._check_fresh(name)
        self.clocks.append(name)
        return len(self.clocks)

    def add_range_type(self, name: str, low: int, high: int) -> None:
        """Declare a named index range, e.g. ``BufferId = [0, n-1]``."""
        self._check_fresh(name)
        if low > high:
            raise DeclarationError(f"range type {name} is empty")
        self.range_types[name] = (low, high)

    # ------------------------------------------------------------------
    # Lookup
    # ------------------------------------------------------------------

    def clock_index(self, name: str) -> Optional[int]:
        """1-based DBM index of a clock, or None if not a clock."""
        try:
            return self.clocks.index(name) + 1
        except ValueError:
            return None

    @property
    def clock_count(self) -> int:
        return len(self.clocks)

    @property
    def dbm_dim(self) -> int:
        return len(self.clocks) + 1

    @property
    def slot_count(self) -> int:
        return self._slots

    def initial_state(self) -> Tuple[int, ...]:
        """The initial variable valuation as a flat tuple."""
        values = [0] * self._slots
        for var in self.int_vars.values():
            values[var.slot] = var.init
        for arr in self.arrays.values():
            values[arr.offset : arr.offset + arr.size] = arr.init
        return tuple(values)

    def state_to_dict(self, state: Tuple[int, ...]) -> Dict[str, object]:
        """Pretty mapping of a discrete state for debugging / printing."""
        out: Dict[str, object] = {}
        for var in self.int_vars.values():
            out[var.name] = state[var.slot]
        for arr in self.arrays.values():
            out[arr.name] = list(state[arr.offset : arr.offset + arr.size])
        return out
