"""Batched kernels over *stacked* DBMs.

A federation's member zones are processed as one ``(k, dim, dim)`` int64
array ("the stack") instead of ``k`` separate ``(dim, dim)`` matrices.
At the dimensions timed-game models live at (dim <= 8), per-zone numpy
calls are dominated by allocation and dispatch overhead, not arithmetic;
stacking amortizes that overhead over the whole federation: one batched
Floyd-Warshall closure, one broadcast comparison for pairwise
subsumption, one fancy-indexed constraint application.

Every function here operates on raw encoded-bound arrays (see
:mod:`repro.dbm.bounds`) and either mutates the stack in place or
returns boolean masks; wrapping rows back into :class:`~repro.dbm.DBM`
objects is the caller's job (:mod:`repro.dbm.federation`).

Backend seam
============

The hot kernels — ``close``, ``extrapolate``, ``reduce_indices`` —
dispatch through a pluggable
:class:`~repro.dbm.backends.base.KernelBackend`
(``REPRO_KERNEL_BACKEND=numpy|cext|auto``).  The pure-numpy bodies
live on as module-private ``_*_ref`` functions: they are the numpy
backend, the differential ground truth the ``kernel`` fuzz check holds
every other backend to, and they compose only each other (never the
dispatched wrappers), so the reference path stays reference even while a
compiled backend is active.  The cheap plumbing (gathers, masks,
``reset``/``shift``/``up``) stays plain numpy for every backend.

Exactness notes:

* ``close`` is the batched shortest-path closure: after it, each
  nonempty row is canonical, and the returned mask is exactly the set of
  consistent (nonempty) rows.  Backends must agree with the reference on
  the mask and byte-for-byte on kept rows; rows the mask discards are
  scratch (the reference leaves them partially closed, a compiled
  backend may abandon them at the first negative diagonal).
* the reference inclusion matrix behind ``reduce_indices`` is exact
  *per pair of convex zones* (canonical
  forms make inclusion a pointwise comparison); it is a sufficient but
  not necessary test for inclusion in a *union* of zones.
* ``disjoint_mask`` is exact: two canonical nonempty zones are disjoint
  iff some pair of opposing bounds sums below ``(0, <=)``.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

from ..util import counters
from . import backends as _backends
from .bounds import INF, INF_SOFT, LE_ZERO

Constraint = Tuple[int, int, int]

#: Batched-dispatch threshold: below this many stacked zones the
#: per-zone DBM path beats the batched kernel — at one or two members
#: the batched path's fixed cost (``np.stack`` gather, masks, re-wrap)
#: exceeds the dispatch overhead it amortizes.  The threshold is
#: deliberately backend-independent: the batched path's fixed cost is the
#: ``np.stack`` gather and result re-wrap, which no backend removes, and
#: a compiled backend accelerates the per-zone fallback too (the scalar
#: pipeline's closures dispatch through the same backend), so measured
#: crossover points barely move with the backend.
BATCH_MIN = 3


def saturating_add(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Vectorized encoded-bound addition with INF saturation."""
    total = a + b - ((a | b) & 1)
    np.copyto(total, INF, where=(a >= INF) | (b >= INF))
    return total


def stack_of(zones: Sequence) -> np.ndarray:
    """The ``(k, dim, dim)`` stack of the given DBMs' matrices."""
    return np.stack([z.m for z in zones])


# ---------------------------------------------------------------------------
# Reference kernel bodies (the numpy backend, and the differential oracle).
# ---------------------------------------------------------------------------


def _close_ref(stack: np.ndarray) -> np.ndarray:
    """Reference batched Floyd-Warshall closure in place; nonempty mask."""
    dim = stack.shape[-1]
    for via in range(dim):
        col = stack[:, :, via : via + 1]
        row = stack[:, via : via + 1, :]
        through = col + row - ((col | row) & 1)
        np.minimum(stack, through, out=stack)
    np.copyto(stack, INF, where=stack >= INF_SOFT)
    diag = np.diagonal(stack, axis1=1, axis2=2)
    return ~(diag < LE_ZERO).any(axis=1)


def _extrapolate_ref(
    stack: np.ndarray, max_consts: Sequence[int]
) -> np.ndarray:
    """Reference batched ExtraM extrapolation in place; nonempty mask."""
    k_arr = np.asarray(max_consts, dtype=np.int64)
    dim = stack.shape[-1]
    finite = stack < INF
    upper = finite & ((stack >> 1) > k_arr[None, :, None])
    upper[:, 0, :] = False
    idx = np.arange(dim)
    upper[:, idx, idx] = False
    low_row = stack[:, 0, :]
    lower = (low_row < INF) & ((low_row >> 1) < -k_arr[None, :])
    changed = upper.any(axis=(1, 2)) | lower.any(axis=1)
    keep = np.ones(stack.shape[0], dtype=bool)
    if not changed.any():
        return keep
    stack[upper] = INF
    if lower.any():
        repl = np.broadcast_to((-k_arr) << 1, low_row.shape)
        low_row[lower] = repl[lower]
    sub = stack[changed]
    ok = _close_ref(sub)
    stack[changed] = sub
    keep[changed] = ok
    return keep


def _inclusion_matrix_ref(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference ``(ka, kb)`` inclusion matrix (pointwise comparison)."""
    return (a[:, None] >= b[None, :]).all(axis=(2, 3))


def _reduce_indices_ref(stack: np.ndarray) -> List[int]:
    """Reference pairwise-subsumption reduction survivors."""
    inc = _inclusion_matrix_ref(stack, stack)
    strict = inc & ~inc.T
    equal = inc & inc.T
    dominated = strict.any(axis=0) | np.triu(equal, 1).any(axis=0)
    return [int(i) for i in np.flatnonzero(~dominated)]


# ---------------------------------------------------------------------------
# Dispatched kernels (public API — unchanged signatures).
# ---------------------------------------------------------------------------


def close(stack: np.ndarray) -> np.ndarray:
    """Batched Floyd-Warshall closure in place; returns the nonempty mask.

    Each row of the returned boolean ``(k,)`` mask is True iff that
    zone is consistent (no negative cycle); inconsistent rows are left
    in a backend-specific partially-closed state and must be discarded
    by the caller.
    """
    counters.inc("stack.closures")
    counters.inc("stack.closed_zones", stack.shape[0])
    backend = _backends.active()
    counters.inc(backend.counter)
    return backend.close(stack)


def up(stack: np.ndarray) -> None:
    """Delay successors of every zone, in place (canonicity preserved)."""
    stack[:, 1:, 0] = INF


def down(stack: np.ndarray) -> np.ndarray:
    """Delay predecessors of every zone, in place; returns nonempty mask."""
    stack[:, 0, 1:] = LE_ZERO
    return close(stack)


def reset(stack: np.ndarray, clocks: Sequence[int]) -> None:
    """Set each clock in ``clocks`` to 0, in place (canonicity preserved)."""
    for x in clocks:
        stack[:, x, :] = stack[:, 0, :]
        stack[:, :, x] = stack[:, :, 0]
        stack[:, x, x] = LE_ZERO
        stack[:, x, 0] = LE_ZERO
        stack[:, 0, x] = LE_ZERO


def free(stack: np.ndarray, clocks: Sequence[int]) -> None:
    """Drop all constraints on the given clocks, in place (canonical)."""
    for x in clocks:
        stack[:, x, :] = INF
        stack[:, :, x] = stack[:, :, 0]
        stack[:, x, x] = LE_ZERO
        stack[:, 0, x] = LE_ZERO


def shift(stack: np.ndarray, pairs: Sequence[Tuple[int, int]]) -> None:
    """Shift clocks currently equal to 0 to constants, in place."""
    for x, c in pairs:
        stack[:, x, :] = saturating_add(stack[:, x, :], np.int64((c << 1) | 1))
        stack[:, :, x] = saturating_add(
            stack[:, :, x], np.int64(((-c) << 1) | 1)
        )
        stack[:, x, x] = LE_ZERO


def constrain(
    stack: np.ndarray, constraints: Sequence[Constraint]
) -> np.ndarray:
    """Intersect every zone with a conjunction of encoded constraints.

    In place; returns the nonempty mask.  Zones no constraint actually
    tightens are left untouched (no re-closure).  The re-closure of the
    tightened sub-stack goes through the dispatched :func:`close`, so a
    compiled backend accelerates this path too.
    """
    k = stack.shape[0]
    changed = np.zeros(k, dtype=bool)
    for i, j, enc in constraints:
        col = stack[:, i, j]
        mask = col > enc
        if mask.any():
            col[mask] = enc
            changed |= mask
    keep = np.ones(k, dtype=bool)
    if changed.any():
        sub = stack[changed]
        ok = close(sub)
        stack[changed] = sub
        keep[changed] = ok
    return keep


def intersect_zone(stack: np.ndarray, zone_m: np.ndarray) -> np.ndarray:
    """Intersect every zone with one zone matrix, in place; nonempty mask."""
    tightened = (stack > zone_m).any(axis=(1, 2))
    np.minimum(stack, zone_m, out=stack)
    keep = np.ones(stack.shape[0], dtype=bool)
    if tightened.any():
        sub = stack[tightened]
        ok = close(sub)
        stack[tightened] = sub
        keep[tightened] = ok
    return keep


def pairwise_intersect(a: np.ndarray, b: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """All pairwise intersections of two stacks.

    Returns ``(stack, mask)`` where ``stack`` has ``ka*kb`` rows (row
    ``x*kb + y`` is ``a[x] ∩ b[y]``) and ``mask`` flags nonempty rows.
    """
    ka, dim = a.shape[0], a.shape[-1]
    kb = b.shape[0]
    out = np.minimum(a[:, None], b[None, :]).reshape(ka * kb, dim, dim)
    return out, close(out)


def extrapolate(stack: np.ndarray, max_consts: Sequence[int]) -> np.ndarray:
    """Batched ExtraM extrapolation in place; returns the nonempty mask.

    ``max_consts[i]`` is clock ``i``'s maximum constant (index 0 unused).
    Only sound for diagonal-free models, like the per-zone version.
    """
    backend = _backends.active()
    counters.inc(backend.counter)
    return backend.extrapolate(
        stack, np.asarray(max_consts, dtype=np.int64)
    )


def disjoint_mask(stack: np.ndarray, zone_m: np.ndarray) -> np.ndarray:
    """``(k,)`` mask: row ``x`` iff ``stack[x]`` and the zone are disjoint.

    Exact for canonical nonempty zones: disjoint iff some opposing bound
    pair sums to a negative cycle, ``m_a[i,j] + m_b[j,i] < (0, <=)``.
    """
    total = saturating_add(stack, zone_m.T[None])
    return (total < LE_ZERO).any(axis=(1, 2))


def reduce_indices(stack: np.ndarray) -> List[int]:
    """Indices surviving pairwise-subsumption reduction.

    Drops every zone strictly included in another zone, and every zone
    equal to an earlier one (the earliest representative of each
    equality class is kept) — the batched equivalent of the legacy
    per-pair reduction loop.
    """
    backend = _backends.active()
    counters.inc(backend.counter)
    return backend.reduce_indices(stack)
