"""Federations: finite unions of DBM zones.

A :class:`Federation` represents a (possibly non-convex) set of clock
valuations as a list of nonempty canonical DBMs.  The list is kept small
by subsumption reduction (zones contained in a sibling zone are dropped)
but is not guaranteed minimal; set-level comparisons (:meth:`includes`,
:meth:`equals`) are exact, via zone subtraction.

DESIGN — one engine
===================

Every operation on a federation runs on one path, whatever the member
count, the way the UPPAAL DBM library (Bengtsson & Yi, 2004) keeps one
implementation per operation under its federation type:

* The convex operations (:meth:`down`, :meth:`constrained`,
  :meth:`intersect`, :meth:`intersect_zone`) map each member through its
  :class:`~repro.dbm.dbm.DBM` method, which is one per-zone kernel call
  on the active :class:`~repro.dbm.backends.base.KernelBackend`
  (``zone_constrain`` or ``zone_close``).
* Subtraction and inclusion are each one ``fed_subtract`` kernel call,
  and :meth:`compact` one per member zone (the solver's ``Predt`` and
  fixpoint body are ``fed_predt`` and ``fixpoint_body``).  The kernel
  splits each zone on the subtrahend's constraints, skips pairs that are
  disjoint or where the zone lies inside the subtrahend, and reduces
  after every subtrahend.  The operands travel as the members' stack
  (:meth:`_rows`), built once per federation and shared.  A kernel's
  result stack is adopted as is: its zones are views of its rows.
* Subsumption reduction (:func:`_reduce`) drops every member included in
  a sibling, pair by pair, with the rule of the federation kernels'
  reduction.

Solver and monitor federations hold about one zone, so the cost of these
operations is Python dispatch per tiny zone operation, not arithmetic.
The numpy backend holds the reference algorithms, and the compiled
backend returns the same zones in the same order.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from ..util import counters
from . import backends as _backends
from .dbm import DBM, scale


def subtract_zone(a: DBM, b: DBM) -> List[DBM]:
    """``a \\ b`` as a list of disjoint nonempty zones.

    Splits ``a`` on each constraint of ``b``: the part of ``a`` violating
    the constraint is carved off, the remainder continues to the next
    constraint.  One ``fed_subtract`` kernel call.
    """
    if a.is_empty():
        return []
    if b.is_empty():
        return [a]
    rows = a.m[None]
    out = _backends.active().fed_subtract(rows, b.m[None])
    return [a] if out is rows else [DBM(m) for m in out]


class Federation:
    """An immutable union of convex zones over a common clock set."""

    __slots__ = ("dim", "zones", "_hash_key", "_rows_cache")

    def __init__(self, dim: int, zones: Iterable[DBM] = ()):
        self.dim = dim
        kept = [z for z in zones if not z.is_empty()]
        self.zones: List[DBM] = _reduce(kept) if len(kept) > 1 else kept
        self._hash_key: Optional[bytes] = None
        self._rows_cache: Optional[np.ndarray] = None
        counters.observe("federation.zones", len(self.zones))

    @classmethod
    def _wrap(cls, dim: int, zones: List[DBM]) -> "Federation":
        """Adopt an already-reduced zone list without re-reducing."""
        fed = cls.__new__(cls)
        fed.dim = dim
        fed.zones = zones
        fed._hash_key = None
        fed._rows_cache = None
        return fed

    @classmethod
    def _adopt(cls, dim: int, rows: np.ndarray) -> "Federation":
        """Adopt a federation kernel's reduced ``(k, dim, dim)`` result:
        the zones are views of its rows, and it is kept as :meth:`_rows`."""
        fed = cls._wrap(dim, [DBM(m) for m in rows])
        fed._rows_cache = rows
        counters.observe("federation.zones", len(fed.zones))
        return fed

    def _rows(self) -> np.ndarray:
        """The members' matrices as one ``(k, dim, dim)`` array, built
        once and shared: the federation kernels only read it."""
        rows = self._rows_cache
        if rows is None:
            zones = self.zones
            if len(zones) == 1:
                rows = zones[0].m[None]
            elif zones:
                rows = np.stack([z.m for z in zones])
            else:
                rows = np.empty((0, self.dim, self.dim), dtype=np.int64)
            self._rows_cache = rows
        return rows

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def empty(cls, dim: int) -> "Federation":
        return cls(dim, ())

    @classmethod
    def universal(cls, dim: int) -> "Federation":
        return cls(dim, (DBM.universal(dim),))

    @classmethod
    def from_zone(cls, zone: DBM) -> "Federation":
        return cls(zone.dim, (zone,))

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def is_empty(self) -> bool:
        """True iff the federation denotes the empty set."""
        return not self.zones

    def __bool__(self) -> bool:
        return bool(self.zones)

    def __len__(self) -> int:
        return len(self.zones)

    def __iter__(self):
        return iter(self.zones)

    def contains(self, valuation) -> bool:
        """Whether a concrete valuation lies in some member zone (values
        as in :meth:`DBM.contains`)."""
        return self.contains_scaled(*scale(valuation))

    def contains_scaled(self, nums, den: int) -> bool:
        """:meth:`contains` for a valuation already in
        :func:`~repro.dbm.dbm.scale` form."""
        for zone in self.zones:
            if zone.contains_scaled(nums, den):
                return True
        return False

    def sample(self):
        """A rational point of the federation (None if empty)."""
        if not self.zones:
            return None
        return self.zones[0].sample()

    def sample_random(self, rng):
        """A random rational point of a random member zone (None if empty)."""
        if not self.zones:
            return None
        return rng.choice(self.zones).sample_random(rng)

    def includes(self, other: "Federation") -> bool:
        """Exact set inclusion ``other ⊆ self``: ``other \\ self`` is empty
        (one ``fed_subtract`` kernel call)."""
        if not other.zones:
            return True
        if not self.zones:
            return False
        left = _backends.active().fed_subtract(other._rows(), self._rows())
        return not left.shape[0]

    def equals(self, other: "Federation") -> bool:
        """Exact set equality (mutual inclusion)."""
        if self.hash_key() == other.hash_key():
            return True  # identical reduced zone sets
        return self.includes(other) and other.includes(self)

    def hash_key(self) -> bytes:
        """An order-insensitive bytes key over the member zones (memoized)."""
        if self._hash_key is None:
            keys = sorted(z.hash_key() for z in self.zones)
            self._hash_key = b"|".join(keys)
        return self._hash_key

    # ------------------------------------------------------------------
    # Set operations
    # ------------------------------------------------------------------

    def union(self, other: "Federation") -> "Federation":
        """Set union (with cheap pairwise subsumption reduction)."""
        if not other.zones:
            return self
        if not self.zones:
            return other
        return Federation(self.dim, self.zones + other.zones)

    def union_zone(self, zone: DBM) -> "Federation":
        """Union with a single zone."""
        if zone.is_empty():
            return self
        return Federation(self.dim, self.zones + [zone])

    def intersect(self, other: "Federation") -> "Federation":
        """Set intersection: every pair of member zones intersected."""
        if not self.zones or not other.zones:
            return Federation.empty(self.dim)
        return Federation(
            self.dim, [a.intersect(b) for a in self.zones for b in other.zones]
        )

    def intersect_zone(self, zone: DBM) -> "Federation":
        """Intersection with a single zone."""
        if zone.is_empty() or not self.zones:
            return Federation.empty(self.dim)
        return self._map(lambda z: z.intersect(zone))

    def subtract(self, other: "Federation") -> "Federation":
        """Set difference ``self \\ other`` (exact): one ``fed_subtract``
        call, ``self`` itself when nothing is removed."""
        if not other.zones or not self.zones:
            return self
        mine = self._rows()
        out = _backends.active().fed_subtract(mine, other._rows())
        return self if out is mine else Federation._adopt(self.dim, out)

    # ------------------------------------------------------------------
    # Member-wise operators
    # ------------------------------------------------------------------

    def _map(self, fn: Callable[[DBM], DBM]) -> "Federation":
        return Federation(self.dim, (fn(z) for z in self.zones))

    def down(self) -> "Federation":
        """Delay predecessors of every member zone."""
        if not self.zones:
            return self
        return self._map(lambda z: z.down())

    def constrained(self, constraints) -> "Federation":
        """Intersect every member zone with encoded constraints."""
        if not self.zones:
            return self
        constraints = list(constraints)
        if not constraints:
            return self
        return self._map(lambda z: z.constrained(constraints))

    def compact(self) -> "Federation":
        """Drop zones covered by the union of the remaining zones (exact).

        Incremental single pass: dropping a covered zone never changes the
        union, so earlier coverage verdicts stay valid and no restart is
        needed (checks against the shrunken remainder are merely more
        conservative, never wrong).  Each coverage test is one
        ``fed_subtract`` kernel call.
        """
        if len(self.zones) <= 1:
            return self
        kernel = _backends.active()
        kept: List[DBM] = list(self.zones)
        idx = 0
        while len(kept) > 1 and idx < len(kept):
            rest = np.stack([z.m for z in kept[:idx] + kept[idx + 1 :]])
            if kernel.fed_subtract(kept[idx].m[None], rest).shape[0]:
                idx += 1
            else:
                kept.pop(idx)
        if len(kept) == len(self.zones):
            return self
        return Federation._wrap(self.dim, kept)

    # ------------------------------------------------------------------
    # Printing
    # ------------------------------------------------------------------

    def to_string(self, names: Optional[Sequence[str]] = None) -> str:
        """Human-readable disjunction of the member zones."""
        if not self.zones:
            return "false"
        parts = [z.to_string(names) for z in self.zones]
        if len(parts) == 1:
            return parts[0]
        return " || ".join(f"({p})" for p in parts)

    def __repr__(self) -> str:
        return f"Federation({self.to_string()})"


def _reduce(zones: List[DBM]) -> List[DBM]:
    """Drop zones pairwise included in another zone (cheap reduction).

    The earliest of equal zones stays and the survivors keep their input
    order: the rule of the federation kernels' reduction
    (:func:`repro.dbm.stack._reduce_indices_ref`).
    """
    kept: List[DBM] = []
    for zone in zones:
        dominated = False
        for other in kept:
            if other.includes(zone):
                dominated = True
                break
        if dominated:
            continue
        kept = [k for k in kept if not zone.includes(k)]
        kept.append(zone)
    return kept
