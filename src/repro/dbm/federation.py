"""Federations: finite unions of DBM zones.

A :class:`Federation` represents a (possibly non-convex) set of clock
valuations as a list of nonempty canonical DBMs.  The list is kept small
by subsumption reduction (zones contained in a sibling zone are dropped)
but is not guaranteed minimal; set-level comparisons (:meth:`includes`,
:meth:`equals`) are exact, via zone subtraction.

DESIGN — the stacked representation
===================================

The public API hands out per-zone :class:`~repro.dbm.dbm.DBM` objects
(``fed.zones``), but internally every bulk operation runs on the *stack*:
the members' matrices gathered into one ``(k, dim, dim)`` int64 array
(:mod:`repro.dbm.stack`).  At game dimensions (dim <= 8) the cost of a
per-zone numpy call is dominated by allocation and Python dispatch, so
``up``/``down``/``constrained``/``extrapolate``/``intersect`` each make
**one** batched kernel call — a single Floyd-Warshall sweep closes every
member at once — and subsumption reduction is one broadcast
``all(a >= b)`` comparison over all pairs instead of O(k^2)
Python-level ``includes`` calls.  The zones handed
back out are views into the result stack, so no per-zone copies are made
either.

Set algebra on the kernel seam.  Subtraction and inclusion are each one
``fed_subtract`` call on the active
:class:`~repro.dbm.backends.base.KernelBackend`, and :meth:`compact` one
per member zone (the solver's ``Predt`` and fixpoint body are
``fed_predt`` and ``fixpoint_body``).  The kernel
splits each zone on the subtrahend's constraints, skips pairs that are
disjoint or where the zone lies inside the subtrahend, and reduces after
every subtrahend.  The operands travel as the members' stack
(:meth:`_rows`), built once per federation and shared.  A kernel's result
stack is adopted as is: its zones are views of its rows.  Solver
federations hold about one zone, so the cost of these operations was
Python dispatch per tiny zone operation, not arithmetic; one call per
operation removes it.  The numpy backend holds the reference algorithms,
and the compiled backend returns the same zones in the same order.

Hybrid dispatch for the remaining operations: below ``stack.BATCH_MIN``
member zones the per-zone DBM path is used instead — at one or two
members the stacked kernel's fixed cost (gather, masks, re-wrap) exceeds
the dispatch overhead it amortizes.  Every such decision is recorded
(``federation.batched_dispatch`` / ``federation.scalar_dispatch``).  Both
paths compute the same sets; the differential kernel tests drive each op
through both and assert extensional equality.
"""

from __future__ import annotations

from typing import Callable, Iterable, List, Optional, Sequence

import numpy as np

from ..util import counters
from . import backends as _backends
from . import stack as _sk
from .dbm import DBM, scale

def _use_batched(batched: bool) -> bool:
    """Record a batched-vs-scalar dispatch decision as it is made.

    The threshold itself is :data:`repro.dbm.stack.BATCH_MIN`; benchmarks
    surface these counters in ``extra_info`` so a result always says
    which path actually ran.
    """
    if batched:
        counters.inc("federation.batched_dispatch")
    else:
        counters.inc("federation.scalar_dispatch")
    return batched


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
                rows = _sk.stack_of(zones)
            else:
                rows = np.empty((0, self.dim, self.dim), dtype=np.int64)
            self._rows_cache = rows
        return rows

    def _stack(self) -> np.ndarray:
        """The members' matrices as one ``(k, dim, dim)`` array (a copy)."""
        return _sk.stack_of(self.zones)

    @classmethod
    def _from_stack(
        cls, dim: int, stacked: np.ndarray, keep: Optional[np.ndarray] = None
    ) -> "Federation":
        """Wrap surviving stack rows as zones (views, no copies) and reduce."""
        if keep is None:
            rows = range(stacked.shape[0])
        else:
            rows = np.flatnonzero(keep)
        return cls(dim, [DBM(stacked[i]) for i in rows])

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

    def intersects(self, other: "Federation") -> bool:
        """Whether the two federations share at least one point."""
        return any(a.intersects(b) for a in self.zones for b in other.zones)

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
        """Set intersection (pairwise over member zones, batched when
        the pair count is large enough to amortize one stacked closure)."""
        if not self.zones or not other.zones:
            return Federation.empty(self.dim)
        bm = _sk.BATCH_MIN
        if not _use_batched(len(self.zones) * len(other.zones) >= bm * bm):
            out: List[DBM] = []
            for a in self.zones:
                for b in other.zones:
                    c = a.intersect(b)
                    if not c.is_empty():
                        out.append(c)
            return Federation(self.dim, out)
        stacked, keep = _sk.pairwise_intersect(self._stack(), other._stack())
        return Federation._from_stack(self.dim, stacked, keep)

    def intersect_zone(self, zone: DBM) -> "Federation":
        """Intersection with a single zone."""
        if zone.is_empty() or not self.zones:
            return Federation.empty(self.dim)
        if not _use_batched(len(self.zones) >= _sk.BATCH_MIN):
            out = []
            for a in self.zones:
                c = a.intersect(zone)
                if not c.is_empty():
                    out.append(c)
            return Federation(self.dim, out)
        stacked = self._stack()
        keep = _sk.intersect_zone(stacked, zone.m)
        return Federation._from_stack(self.dim, stacked, keep)

    def subtract_dbm(self, zone: DBM) -> "Federation":
        """Set difference ``self \\ zone`` (exact, possibly more zones)."""
        if zone.is_empty():
            return self
        return self._minus(zone.m[None])

    def subtract(self, other: "Federation") -> "Federation":
        """Set difference ``self \\ other`` (exact)."""
        if not other.zones:
            return self
        return self._minus(other._rows())

    def _minus(self, rows: np.ndarray) -> "Federation":
        """``self`` minus the zones of a stack: one ``fed_subtract`` call,
        ``self`` itself when nothing is removed."""
        if not self.zones:
            return self
        mine = self._rows()
        out = _backends.active().fed_subtract(mine, rows)
        return self if out is mine else Federation._adopt(self.dim, out)

    def complement_within(self, universe: DBM) -> "Federation":
        """``universe \\ self``."""
        return Federation.from_zone(universe).subtract(self)

    # ------------------------------------------------------------------
    # Timed operators (batched over the member stack)
    # ------------------------------------------------------------------

    def _map(self, fn: Callable[[DBM], DBM]) -> "Federation":
        return Federation(self.dim, (fn(z) for z in self.zones))

    def _batchable(self) -> bool:
        return _use_batched(len(self.zones) >= _sk.BATCH_MIN)

    def up(self) -> "Federation":
        """Delay successors of every member zone."""
        if not self.zones:
            return self
        if not self._batchable():
            return self._map(lambda z: z.up())
        stacked = self._stack()
        _sk.up(stacked)
        return Federation._from_stack(self.dim, stacked)

    def down(self) -> "Federation":
        """Delay predecessors of every member zone."""
        if not self.zones:
            return self
        if not self._batchable():
            return self._map(lambda z: z.down())
        stacked = self._stack()
        keep = _sk.down(stacked)
        return Federation._from_stack(self.dim, stacked, keep)

    def constrained(self, constraints) -> "Federation":
        """Intersect every member zone with encoded constraints."""
        if not self.zones:
            return self
        constraints = list(constraints)
        if not constraints:
            return self
        if not self._batchable():
            return self._map(lambda z: z.constrained(constraints))
        stacked = self._stack()
        keep = _sk.constrain(stacked, constraints)
        return Federation._from_stack(self.dim, stacked, keep)

    def extrapolate(self, max_consts: Sequence[int]) -> "Federation":
        """ExtraM extrapolation of every member zone."""
        if not self.zones:
            return self
        if not self._batchable():
            return self._map(lambda z: z.extrapolate(max_consts))
        stacked = self._stack()
        keep = _sk.extrapolate(stacked, max_consts)
        return Federation._from_stack(self.dim, stacked, keep)

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
            rest = _sk.stack_of(kept[:idx] + kept[idx + 1 :])
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

    Small lists use the legacy per-pair loop; larger ones one batched
    inclusion-matrix comparison (identical keep/drop semantics, kept
    separately as the reference implementation for the differential
    kernel tests).
    """
    if len(zones) > 2:
        keep = _sk.reduce_indices(_sk.stack_of(zones))
        return [zones[i] for i in keep]
    return _reduce_pairwise(zones)


def _reduce_pairwise(zones: List[DBM]) -> List[DBM]:
    """Reference per-pair subsumption reduction (legacy implementation)."""
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
