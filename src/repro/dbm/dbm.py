"""Difference Bound Matrices over a fixed clock set.

A :class:`DBM` represents a convex clock zone: a conjunction of constraints
``x_i - x_j ≺ b`` with ``≺ ∈ {<, <=}`` over clocks ``x_1 .. x_{dim-1}`` plus
the reference clock ``x_0 = 0``.  Entry ``(i, j)`` holds the encoded bound
on ``x_i - x_j`` (see :mod:`repro.dbm.bounds`).

All public operations return *new, canonical* DBMs; instances are treated
as immutable after construction.  Canonical (closed) form means the matrix
is its own shortest-path closure, which makes inclusion and equality tests
pointwise comparisons.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from ..util import counters
from . import backends as _backends
from .backends.base import CHANGED, UNCHANGED
from .bounds import (
    INF,
    LE_ZERO,
    Bound,
    bound_as_string,
    decode,
    decoded,
)

Constraint = Tuple[int, int, int]  # (i, j, encoded bound): x_i - x_j ≺ b

#: Delays ``lo (<|<=) d (<|<=) hi`` as integer numerators over the
#: valuation's denominator: ``(lo, lo_strict, hi, hi_strict)``, ``hi``
#: None meaning unbounded.
Window = Tuple[int, bool, Optional[int], bool]


def scale(valuation) -> Tuple[Tuple[int, ...], int]:
    """A clock valuation as integer numerators over one denominator.

    Returns ``(nums, den)`` with ``valuation[k] == nums[k] / den`` for
    every real clock ``k >= 1``; ``nums[0]`` is 0, the reference clock,
    whatever ``valuation[0]`` holds.  Exact for ints and Fractions; any
    other value (a float, a numpy scalar) is first converted with
    ``Fraction(x)``, so a float stands for the binary rational it
    denotes exactly (``0.1`` is ``3602879701896397 / 2**55``), not for
    the decimal it was written as.
    """
    values = [
        v if isinstance(v, (int, Fraction)) else Fraction(v)
        for v in valuation[1:]
    ]
    den = 1
    for v in values:
        d = v.denominator
        if den % d:
            den = den // gcd(den, d) * d
    return (0, *[v.numerator * (den // v.denominator) for v in values]), den


def fold_delay_window(
    bounds: Iterable[Bound],
    nums: Sequence[int],
    den: int,
    hi: Optional[int] = None,
    hi_strict: bool = False,
) -> Optional[Window]:
    """The delays ``d >= 0`` after which a scaled valuation meets ``bounds``.

    ``nums``/``den`` is a valuation in :func:`scale` form and the result
    is a :data:`Window` over the same ``den``; ``hi``/``hi_strict`` is an
    upper limit already known (an invariant).  Delay moves every real
    clock together, so a bound between two real clocks either holds for
    every delay or for none (then the result is None), an upper bound
    ``x_i ≺ b`` caps ``d``, and a lower bound ``-x_j ≺ b`` raises it.
    None also when the window is empty.
    """
    lo = 0
    lo_strict = False
    for i, j, b, strict in bounds:
        if i and j:
            # Violated iff b*den - (n_i - n_j) < 0, or == 0 when strict.
            if b * den - nums[i] + nums[j] < strict:
                return None
        elif j == 0:
            # (v_i + d) ≺ b  ->  d ≺ b - v_i
            slack = b * den - nums[i]
            if hi is None or slack < hi or (slack == hi and strict):
                hi, hi_strict = slack, strict
        else:
            # -(v_j + d) ≺ b  ->  d ≻ -b - v_j
            need = -b * den - nums[j]
            if need > lo or (need == lo and strict):
                lo, lo_strict = need, strict
    if hi is not None and (hi < lo or (hi == lo and (lo_strict or hi_strict))):
        return None
    return lo, lo_strict, hi, hi_strict


def _saturating_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized encoded-bound addition with INF saturation."""
    total = a + b - ((a | b) & 1)
    np.copyto(total, INF, where=(a >= INF) | (b >= INF))
    return total


# Shared immutable template instances per dimension.  DBMs are never
# mutated after construction, so the universal/zero/empty zone of each
# dimension can be a singleton: construction becomes a dict lookup and
# ``is_universal`` an identity/array comparison against the template
# instead of a fresh allocation per call.  The backing matrices are
# marked read-only as a tripwire against accidental in-place writes.
_UNIVERSAL: Dict[int, "DBM"] = {}
_ZERO: Dict[int, "DBM"] = {}
_EMPTY: Dict[int, "DBM"] = {}

class DBM:
    """A canonical difference bound matrix (a convex clock zone)."""

    __slots__ = ("m", "dim", "_empty", "_hash", "_key", "_bounds")

    def __init__(self, matrix: np.ndarray, *, empty: bool = False):
        self.m = matrix
        self.dim = matrix.shape[0]
        self._empty = empty
        self._hash: Optional[int] = None
        self._key: Optional[bytes] = None
        self._bounds: Optional[Tuple[Bound, ...]] = None

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------

    @classmethod
    def universal(cls, dim: int) -> "DBM":
        """The zone of all clock valuations (only ``x_i >= 0``)."""
        cached = _UNIVERSAL.get(dim)
        if cached is None:
            m = np.full((dim, dim), INF, dtype=np.int64)
            m[0, :] = LE_ZERO
            np.fill_diagonal(m, LE_ZERO)
            m.setflags(write=False)
            cached = _UNIVERSAL[dim] = cls(m)
        return cached

    @classmethod
    def zero(cls, dim: int) -> "DBM":
        """The singleton zone where every clock equals 0."""
        cached = _ZERO.get(dim)
        if cached is None:
            m = np.full((dim, dim), LE_ZERO, dtype=np.int64)
            m.setflags(write=False)
            cached = _ZERO[dim] = cls(m)
        return cached

    @classmethod
    def empty(cls, dim: int) -> "DBM":
        """A canonical empty zone."""
        cached = _EMPTY.get(dim)
        if cached is None:
            m = np.full((dim, dim), LE_ZERO, dtype=np.int64)
            m.setflags(write=False)
            cached = _EMPTY[dim] = cls(m, empty=True)
        return cached

    @classmethod
    def from_constraints(cls, dim: int, constraints: Iterable[Constraint]) -> "DBM":
        """The zone satisfying all the given constraints (and ``x_i >= 0``)."""
        return cls.universal(dim).constrained(constraints)

    # ------------------------------------------------------------------
    # Basic queries
    # ------------------------------------------------------------------

    def is_empty(self) -> bool:
        """True iff the zone denotes the empty set."""
        return self._empty

    def is_universal(self) -> bool:
        """True iff the zone is all of ``R_{>=0}^clocks``."""
        if self._empty:
            return False
        template = DBM.universal(self.dim)
        return self is template or bool(np.array_equal(self.m, template.m))

    def __bool__(self) -> bool:
        return not self._empty

    def equals(self, other: "DBM") -> bool:
        """Set equality (canonical forms are unique)."""
        if self._empty or other._empty:
            return self._empty and other._empty
        return bool(np.array_equal(self.m, other.m))

    def includes(self, other: "DBM") -> bool:
        """True iff ``other ⊆ self`` (as sets of valuations)."""
        if other._empty:
            return True
        if self._empty:
            return False
        return bool((self.m >= other.m).all())

    def disjoint_from(self, other: "DBM") -> bool:
        """Exact O(dim^2) disjointness test for canonical nonempty zones.

        Two canonical zones are disjoint iff some pair of opposing bounds
        closes a negative cycle: ``self[i,j] + other[j,i] < (0, <=)``.
        """
        total = _saturating_add(self.m, other.m.T)
        return bool((total < LE_ZERO).any())

    def hash_key(self) -> bytes:
        """A bytes key identifying this zone (canonical forms are unique)."""
        if self._key is None:
            if self._empty:
                self._key = b"empty:%d" % self.dim
            else:
                self._key = self.m.tobytes()
        return self._key

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash(self.hash_key())
        return self._hash

    def __eq__(self, other) -> bool:
        return isinstance(other, DBM) and self.equals(other)

    # ------------------------------------------------------------------
    # Closure
    # ------------------------------------------------------------------

    @staticmethod
    def _close(m: np.ndarray) -> bool:
        """Floyd-Warshall closure in place; returns False if inconsistent.

        The active backend's ``zone_close``: drift-tolerant bound
        addition, one clamp of everything above INF_SOFT at the end (see
        :data:`repro.dbm.bounds.INF_SOFT`).
        """
        counters.inc("dbm.closures")
        return _backends.active().zone_close(m)

    @classmethod
    def _from_raw(cls, m: np.ndarray) -> "DBM":
        """Close a raw matrix and wrap it (empty if inconsistent)."""
        if cls._close(m):
            return cls(m)
        return cls.empty(m.shape[0])

    # ------------------------------------------------------------------
    # Constraining
    # ------------------------------------------------------------------

    def tighten(self, i: int, j: int, enc: int) -> "DBM":
        """Intersect with one constraint, using O(dim^2) incremental closure."""
        return self.constrained(((i, j, enc),))

    def constrained(self, constraints: Iterable[Constraint]) -> "DBM":
        """Intersect with a conjunction of constraints.

        One per-zone kernel call (``zone_constrain`` of the active
        backend): each constraint that tightens the zone is applied with
        the cheap emptiness pre-test and an O(dim^2) incremental
        reclosure, and the matrix is copied at most once — constraining
        is the single most frequent zone operation (every guard and
        invariant).
        """
        if self._empty:
            return self
        if not isinstance(constraints, (list, tuple)):
            constraints = list(constraints)
        status, m = _backends.active().zone_constrain(self.m, constraints)
        if status == CHANGED:
            return DBM(m)
        return self if status == UNCHANGED else DBM.empty(self.dim)

    def intersect(self, other: "DBM") -> "DBM":
        """Zone intersection (canonical)."""
        if self._empty or other._empty:
            return DBM.empty(self.dim)
        if self.includes(other):
            return other
        if other.includes(self):
            return self
        if self.disjoint_from(other):
            return DBM.empty(self.dim)
        m = np.minimum(self.m, other.m)
        return DBM._from_raw(m)

    # ------------------------------------------------------------------
    # Timed operators
    # ------------------------------------------------------------------

    def up(self) -> "DBM":
        """Delay successors (future): ``{v + d | v in Z, d >= 0}``."""
        if self._empty:
            return self
        m = self.m.copy()
        m[1:, 0] = INF
        return DBM(m)  # removing upper bounds preserves canonicity

    def down(self) -> "DBM":
        """Delay predecessors (past): ``{v | exists d >= 0: v + d in Z}``."""
        if self._empty:
            return self
        m = self.m.copy()
        m[0, 1:] = LE_ZERO
        return DBM._from_raw(m)

    def reset(self, clocks: Sequence[int]) -> "DBM":
        """The zone after setting each clock in ``clocks`` to 0."""
        if self._empty or not clocks:
            return self
        m = self.m.copy()
        for x in clocks:
            m[x, :] = m[0, :]
            m[:, x] = m[:, 0]
            m[x, x] = LE_ZERO
            m[x, 0] = LE_ZERO
            m[0, x] = LE_ZERO
        return DBM(m)  # reset preserves canonicity

    def free(self, clocks: Sequence[int]) -> "DBM":
        """Remove all constraints on the given clocks (keeping ``x >= 0``).

        This is the inverse-image helper for reset: ``free_x(Z ∩ {x=0})``
        is exactly ``{v | v[x := 0] in Z}``.
        """
        if self._empty or not clocks:
            return self
        m = self.m.copy()
        for x in clocks:
            m[x, :] = INF
            m[:, x] = m[:, 0]  # x_p - x <= x_p - x_0, as x >= 0
            m[x, x] = LE_ZERO
            m[0, x] = LE_ZERO
        return DBM(m)  # construction is canonical (see module tests)

    def assign_clocks(self, pairs: Sequence[Tuple[int, int]]) -> "DBM":
        """The zone after ``x := c`` for each ``(x, c)`` (c >= 0)."""
        if self._empty or not pairs:
            return self
        zone = self.reset([x for x, _ in pairs])
        shifts = [(x, c) for x, c in pairs if c != 0]
        if not shifts:
            return zone
        m = zone.m.copy()
        for x, c in shifts:
            # x currently equals 0; shift it to c.
            m[x, :] = _saturating_add(m[x, :], np.int64((c << 1) | 1))
            m[:, x] = _saturating_add(m[:, x], np.int64(((-c) << 1) | 1))
            m[x, x] = LE_ZERO
        return DBM(m)  # a pure shift of one coordinate preserves canonicity

    def assign_pred(self, pairs: Sequence[Tuple[int, int]]) -> "DBM":
        """Pre-image of clock assignments: ``{v | v[x := c, ...] ∈ self}``."""
        if not pairs:
            return self
        fixed = self.constrained(
            [(x, 0, (c << 1) | 1) for x, c in pairs]
            + [(0, x, ((-c) << 1) | 1) for x, c in pairs]
        )
        return fixed.free([x for x, _ in pairs])

    # ------------------------------------------------------------------
    # Extrapolation
    # ------------------------------------------------------------------

    def extrapolate(self, max_consts: Sequence[int]) -> "DBM":
        """Classic maximum-constant extrapolation (ExtraM).

        ``max_consts[i]`` is the largest constant clock ``x_i`` is compared
        against anywhere in the model (index 0 unused).  Only sound for
        diagonal-free models.
        """
        if self._empty:
            return self
        status, m = _backends.active().zone_extrapolate(self.m, max_consts)
        if status == UNCHANGED:
            return self
        counters.inc("dbm.closures")
        return DBM(m) if status == CHANGED else DBM.empty(self.dim)

    # ------------------------------------------------------------------
    # Concrete valuations
    # ------------------------------------------------------------------

    @property
    def finite_bounds(self) -> Tuple[Bound, ...]:
        """The finite off-diagonal bounds ``(i, j, b, strict)``.

        Built on first use and kept, so zones that are never tested
        against a concrete valuation never pay for it.
        """
        bounds = self._bounds
        if bounds is None:
            bounds = self._bounds = decoded(self.constraints())
        return bounds

    def contains(self, valuation: Sequence) -> bool:
        """Whether a concrete valuation (indexable by clock id; entry 0,
        the reference clock, is taken as 0) lies in the zone.

        Values may be ints or Fractions, compared exactly; anything else
        is converted with ``Fraction(x)`` first, so a float is tested as
        the binary rational it denotes (see :func:`scale`).
        """
        return self.contains_scaled(*scale(valuation))

    def contains_scaled(self, nums: Sequence[int], den: int) -> bool:
        """:meth:`contains` for a valuation already in :func:`scale` form."""
        if self._empty:
            return False
        for i, j, b, strict in self.finite_bounds:
            # x_i - x_j ≺ b  iff  b*den - (n_i - n_j) > 0, or >= 0 if <=.
            if b * den - nums[i] + nums[j] < strict:
                return False
        return True

    def _feasible_interval(self, point, x):
        """The feasible interval of clock ``x`` given fixed clocks ``< x``.

        Returns ``(lo, lo_strict, hi, hi_strict)``; ``hi`` None means
        unbounded.  Nonempty by the triangle inequality on canonical DBMs
        (the standard point-construction argument).
        """
        from fractions import Fraction

        lo = Fraction(0)
        lo_strict = False
        hi: Optional[Fraction] = None
        hi_strict = False
        for j in range(0, x):
            vj = point[j]
            # x_j - x ≺ m[j, x]  ->  x ≥/> v_j - b
            enc = int(self.m[j, x])
            if enc < INF:
                value, strict = decode(enc)
                cand = vj - value
                if cand > lo or (cand == lo and strict and not lo_strict):
                    lo, lo_strict = cand, strict
            # x - x_j ≺ m[x, j]  ->  x ≤/< v_j + b
            enc = int(self.m[x, j])
            if enc < INF:
                value, strict = decode(enc)
                cand = vj + value
                if hi is None or cand < hi or (
                    cand == hi and strict and not hi_strict
                ):
                    hi, hi_strict = cand, strict
        return lo, lo_strict, hi, hi_strict

    def sample(self):
        """Some rational point of the zone (None if empty).

        Fixes clocks left to right inside their feasible intervals.
        Prefers the lowest feasible value; takes midpoints at strict
        boundaries.
        """
        from fractions import Fraction

        if self._empty:
            return None
        point: List[Fraction] = [Fraction(0)] * self.dim
        for x in range(1, self.dim):
            lo, lo_strict, hi, _hi_strict = self._feasible_interval(point, x)
            if not lo_strict:
                point[x] = lo
            elif hi is None:
                point[x] = lo + 1
            else:
                point[x] = (lo + hi) / 2
        if not self.contains(point):  # pragma: no cover - safety net
            raise AssertionError("DBM.sample produced an external point")
        return point

    def sample_random(self, rng):
        """A random rational point of the zone (None if empty).

        Same construction as :meth:`sample`, but each clock is drawn
        uniformly from the quarter-integer grid of its feasible interval
        instead of pinned to the lower corner — better coverage for
        randomized membership cross-checks.  ``rng`` is a
        ``random.Random``; the result is deterministic per seed.
        """
        from fractions import Fraction

        if self._empty:
            return None
        point: List[Fraction] = [Fraction(0)] * self.dim
        for x in range(1, self.dim):
            lo, lo_strict, hi, hi_strict = self._feasible_interval(point, x)
            top = lo + 4 if hi is None else hi
            grid = [
                q
                for k in range(int((top - lo) * 4) + 1)
                if (q := lo + Fraction(k, 4)) is not None
                and (q > lo or not lo_strict)
                and (hi is None or q < hi or (q == hi and not hi_strict))
            ]
            if grid:
                point[x] = rng.choice(grid)
            elif hi is None:
                point[x] = lo + 1
            else:
                point[x] = (lo + hi) / 2
        if not self.contains(point):  # pragma: no cover - safety net
            raise AssertionError("DBM.sample_random produced an external point")
        return point

    # ------------------------------------------------------------------
    # Introspection / printing
    # ------------------------------------------------------------------

    def constraints(self) -> List[Constraint]:
        """All finite off-diagonal constraints of the canonical form."""
        return [
            (i, j, enc)
            for i, row in enumerate(self.m.tolist())
            for j, enc in enumerate(row)
            if i != j and enc < INF
        ]

    def nontrivial_constraints(self) -> List[Constraint]:
        """Finite constraints excluding the implicit ``x >= 0`` bounds."""
        out = []
        for i, j, enc in self.constraints():
            if i == 0 and enc == LE_ZERO:
                continue
            out.append((i, j, enc))
        return out

    def to_string(self, names: Optional[Sequence[str]] = None) -> str:
        """Human-readable conjunction of the non-trivial constraints."""
        if self._empty:
            return "false"
        names = names or [f"x{k}" for k in range(self.dim)]
        parts = []
        for i, j, enc in self.nontrivial_constraints():
            if i == 0:
                # -x_j ≺ b  ->  x_j ≥/-... print as lower bound
                value, strict = decode(enc)
                op = ">" if strict else ">="
                parts.append(f"{names[j]} {op} {-value}")
            elif j == 0:
                parts.append(bound_as_string(enc, names[i]))
            else:
                parts.append(bound_as_string(enc, names[i], names[j]))
        return " && ".join(parts) if parts else "true"

    def __repr__(self) -> str:
        return f"DBM({self.to_string()})"
