"""The ``KernelBackend`` protocol: the seam the zone kernels dispatch on.

A backend supplies implementations of the *hot* DBM kernels — the
operations profiling shows every solver fixpoint, state-estimate
closure, and explorer subsumption scan bottoms out in.  Two families:

* the **stacked** kernels over ``(k, dim, dim)`` arrays, called by
  :mod:`repro.dbm.stack` (``close``, ``extrapolate``, ...);
* the **per-zone** kernels over one canonical ``(dim, dim)`` matrix,
  called by :class:`~repro.dbm.DBM` (``zone_close``,
  ``zone_constrain``, ``zone_extrapolate``) — the forward exploration
  path, where per-call numpy dispatch costs more than the arithmetic.

Everything else (gathers, masks, cheap per-entry updates) is shared
plumbing and stays numpy regardless of the backend.

Exactness contract
==================

For every kernel the backend must return, for each input row, *exactly*
the reference (pure-numpy) result:

* the keep/nonempty masks must be identical, and
* every **kept** row's matrix must be byte-identical to the reference.

Rows the mask discards are scratch: their contents are unspecified (the
reference leaves them partially closed, a compiled backend may bail out
of them early) and callers must never read them.  The per-zone
``zone_constrain`` / ``zone_extrapolate`` kernels never write their
input and report a verdict, :data:`UNCHANGED`, :data:`CHANGED` or
:data:`EMPTY`, which must equal the reference's; only a
:data:`CHANGED` result matrix is read, and it must be byte-identical.

The contract is not a convention but a theorem for any correct
implementation — kept rows are canonical, and canonical forms are
unique — and it is *enforced* by the always-on ``kernel`` differential
check (:mod:`repro.gen.differential`), which fuzzes every available
backend against the numpy reference, the same way the ``estimate``
check holds the batched state estimate to the per-zone one.

Argument marshalling
====================

Backends receive guard/invariant/reset/shift arguments exactly as the
public :mod:`repro.dbm.stack` functions and :class:`~repro.dbm.DBM`
methods do: Python sequences of tuples (plus ``caps``, an ``int64``
vector for the stacked ``extrapolate`` and a sequence of ints for
``zone_extrapolate``).  Compiled backends marshal them themselves — the
stacked kernels to ``int64`` arrays (``(n, 3)`` for ``(i, j, enc)``
constraint rows, ``(n, 2)`` for ``(clock, value)`` pairs, via
:func:`marshal_constraints` / :func:`marshal_pairs`), the per-zone
kernels to a flat list of ints — so the numpy reference path pays no
conversion cost at all.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

Constraint = Tuple[int, int, int]

#: Per-zone kernel verdicts: nothing tightened or widened (the input zone
#: stands), a new canonical matrix, or the empty zone.
UNCHANGED, CHANGED, EMPTY = 0, 1, 2


@runtime_checkable
class KernelBackend(Protocol):
    """Implementations of the hot stacked kernels (see module docstring)."""

    #: Registry name ("numpy", "cext").
    name: str
    #: True for backends that run compiled (native) code.
    compiled: bool
    #: Counter bumped on every dispatched stacked-kernel call
    #: (``dbm.backend_<name>``), surfaced in benchmark ``extra_info``.
    counter: str

    def zone_close(self, m: np.ndarray) -> bool:
        """Floyd-Warshall closure of one matrix in place; nonempty?"""
        ...

    def zone_constrain(
        self, m: np.ndarray, constraints: Sequence[Constraint]
    ) -> Tuple[int, Optional[np.ndarray]]:
        """Tighten a canonical zone by each ``(i, j, enc)`` in turn.

        Each tightening first tests ``m[j, i] + enc < (0, <=)`` (empty),
        then recloses incrementally through ``(i, j)``.  Returns the
        verdict and, for :data:`CHANGED`, the new canonical matrix.
        """
        ...

    def zone_extrapolate(
        self, m: np.ndarray, max_consts: Sequence[int]
    ) -> Tuple[int, Optional[np.ndarray]]:
        """ExtraM widening of a canonical zone, then reclosure."""
        ...

    def close(self, stack: np.ndarray) -> np.ndarray:
        """Batched Floyd-Warshall closure in place; the nonempty mask."""
        ...

    def extrapolate(self, stack: np.ndarray, caps: np.ndarray) -> np.ndarray:
        """Batched ExtraM widening in place; the nonempty mask."""
        ...

    def inclusion_matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``(ka, kb)`` bool matrix: ``(x, y)`` iff ``b[y] ⊆ a[x]``."""
        ...

    def reduce_indices(self, stack: np.ndarray) -> List[int]:
        """Indices surviving pairwise-subsumption reduction."""
        ...

    def subsume_frontier(
        self, new: np.ndarray, seen: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Frontier admission masks ``(keep_new, drop_seen)``."""
        ...

    def hidden_post_step(
        self,
        stack: np.ndarray,
        guard: np.ndarray,
        resets: np.ndarray,
        shifts: np.ndarray,
        invariant: np.ndarray,
        delay: bool,
    ) -> np.ndarray:
        """One move's fused ``delay ∘ post`` over the stack, in place."""
        ...

    def any_hidden_post(
        self,
        stack: np.ndarray,
        guard: np.ndarray,
        resets: np.ndarray,
        shifts: np.ndarray,
        invariant: np.ndarray,
    ) -> bool:
        """Existence-only probe: does any row survive the move?"""
        ...


class BackendUnavailable(RuntimeError):
    """A requested backend cannot be loaded (import/toolchain failure)."""


def marshal_constraints(constraints) -> np.ndarray:
    """``(i, j, enc)`` tuples → a C-contiguous ``(n, 3)`` int64 array."""
    if not len(constraints):
        return np.empty((0, 3), dtype=np.int64)
    return np.ascontiguousarray(np.asarray(constraints, dtype=np.int64))


def marshal_pairs(pairs) -> np.ndarray:
    """``(clock, value)`` tuples → a C-contiguous ``(n, 2)`` int64 array."""
    if not len(pairs):
        return np.empty((0, 2), dtype=np.int64)
    return np.ascontiguousarray(np.asarray(pairs, dtype=np.int64))


def marshal_clocks(clocks) -> np.ndarray:
    """Clock indices → a C-contiguous ``(n,)`` int64 array."""
    return np.ascontiguousarray(np.asarray(list(clocks), dtype=np.int64))
