"""The ``KernelBackend`` protocol: the seam the stacked kernels dispatch on.

A backend supplies implementations of the *hot* stacked-DBM kernels —
the operations profiling shows every solver fixpoint, state-estimate
closure, and explorer subsumption scan bottoms out in.  Everything else
in :mod:`repro.dbm.stack` (gathers, masks, cheap per-entry updates) is
shared plumbing and stays numpy regardless of the backend.

Exactness contract
==================

For every kernel the backend must return, for each input row, *exactly*
the reference (pure-numpy) result:

* the keep/nonempty masks must be identical, and
* every **kept** row's matrix must be byte-identical to the reference.

Rows the mask discards are scratch: their contents are unspecified (the
reference leaves them partially closed, a compiled backend may bail out
of them early) and callers must never read them.  The contract is not a
convention but a theorem for any correct implementation — kept rows are
canonical, and canonical forms are unique — and it is *enforced* by the
always-on ``kernel`` differential check (:mod:`repro.gen.differential`),
which fuzzes every available backend against the numpy reference, the
same way the ``estimate`` check holds the batched state estimate to the
per-zone one.

Argument marshalling
====================

Backends receive guard/invariant/reset/shift arguments exactly as the
public :mod:`repro.dbm.stack` functions do: Python sequences of tuples
(plus ``caps`` already as an ``int64`` vector).  Compiled backends
marshal them to ``int64`` arrays themselves (``(n, 3)`` for
``(i, j, enc)`` constraint rows, ``(n, 2)`` for ``(clock, value)``
pairs, via :func:`marshal_constraints` / :func:`marshal_pairs`) so the
numpy reference path pays no conversion cost at all.
"""

from __future__ import annotations

from typing import List, Optional, Protocol, Tuple, runtime_checkable

import numpy as np


@runtime_checkable
class KernelBackend(Protocol):
    """Implementations of the hot stacked kernels (see module docstring)."""

    #: Registry name ("numpy", "cext").
    name: str
    #: True for backends that run compiled (native) code.  A
    #: compiled backend also serves the *per-zone* closure
    #: (``DBM._close`` routes single matrices through ``close`` as a
    #: 1-stack), so both sides of the hybrid batched/scalar dispatch
    #: accelerate together.
    compiled: bool
    #: Counter bumped on every dispatched kernel call
    #: (``dbm.backend_<name>``), surfaced in benchmark ``extra_info``.
    counter: str

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
