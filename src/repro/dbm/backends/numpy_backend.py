"""The pure-numpy kernel backend: the reference.

A thin class over the ``_*_ref`` bodies in :mod:`repro.dbm.stack` plus
the per-zone reference kernels below — the exact code every other
backend is differentially fuzzed against.  It adds nothing to the
stacked kernels: no marshalling, no copies, no extra counters beyond
the dispatch layer's.  The fused step kernels compose this class's own
per-zone kernels with the stack module's reset/shift/free/up plumbing,
one operation at a time, so the reference for a fused call is the
sequence of zone operations it stands for.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import stack as _sk
from ..bounds import INF, INF_SOFT, LE_ZERO, add_bounds
from .base import CHANGED, EMPTY, UNCHANGED, MovePlan

Constraint = Tuple[int, int, int]


def _reclose_through(m: np.ndarray, i: int, j: int, enc: int) -> None:
    """Incremental re-closure after tightening ``m[i, j]`` to ``enc``.

    Any shortest path can now route p -> i -> j -> q.  Uses the same
    drift-tolerant addition as :meth:`NumpyBackend.zone_close` (one INF
    clamp at the end instead of per-step masking).
    """
    col = m[:, i : i + 1]
    t = col + enc - ((col | enc) & 1)
    row = m[j : j + 1, :]
    via = t + row - ((t | row) & 1)
    np.minimum(m, via, out=m)
    np.copyto(m, INF, where=m >= INF_SOFT)


# Extrapolation runs once per freshly interned graph node against the
# same few max-constant vectors, so the comparison matrices derived from
# them are cached: row_caps[i, j] is the bound value above which entry
# (i, j) widens to INF (sentinel-huge on row 0 and the diagonal, which
# never widen), low_caps/low_repl drive the row-0 lower-bound clamp.
_EXTRA_CAPS: Dict[Tuple[int, Tuple[int, ...]], Tuple[np.ndarray, ...]] = {}


def _extra_caps(dim: int, key: Tuple[int, ...]):
    caps = _EXTRA_CAPS.get((dim, key))
    if caps is None:
        huge = np.int64(INF)
        k_arr = np.asarray(key, dtype=np.int64)
        row_caps = np.broadcast_to(k_arr[:, None], (dim, dim)).copy()
        row_caps[0, :] = huge
        np.fill_diagonal(row_caps, huge)
        low_caps = (-k_arr).copy()
        low_caps[0] = -huge
        low_repl = (-k_arr) << 1  # encode (-k_j, <)
        caps = _EXTRA_CAPS[(dim, key)] = (row_caps, low_caps, low_repl)
    return caps


class NumpyBackend:
    name = "numpy"
    compiled = False
    counter = "dbm.backend_numpy"

    def zone_close(self, m: np.ndarray) -> bool:
        dim = m.shape[0]
        for k in range(dim):
            col = m[:, k : k + 1]
            row = m[k : k + 1, :]
            through_k = col + row - ((col | row) & 1)
            np.minimum(m, through_k, out=m)
        np.copyto(m, INF, where=m >= INF_SOFT)
        return not bool((np.diagonal(m) < LE_ZERO).any())

    def zone_constrain(
        self, m: np.ndarray, constraints: Sequence[Constraint]
    ) -> Tuple[int, Optional[np.ndarray]]:
        out: Optional[np.ndarray] = None
        for i, j, enc in constraints:
            cur = m if out is None else out
            if enc >= cur[i, j]:
                continue
            if add_bounds(int(cur[j, i]), enc) < LE_ZERO:
                return EMPTY, None
            if out is None:
                out = m.copy()
            out[i, j] = enc
            _reclose_through(out, i, j, enc)
        return (UNCHANGED, None) if out is None else (CHANGED, out)

    def zone_extrapolate(
        self, m: np.ndarray, max_consts: Sequence[int]
    ) -> Tuple[int, Optional[np.ndarray]]:
        row_caps, low_caps, low_repl = _extra_caps(m.shape[0], tuple(max_consts))
        upper = (m < INF) & ((m >> 1) > row_caps)
        low_row = m[0]
        lower = (low_row < INF) & ((low_row >> 1) < low_caps)
        if not (upper.any() or lower.any()):
            return UNCHANGED, None
        m = m.copy()
        m[upper] = INF
        if lower.any():
            m[0, lower] = low_repl[lower]
        return (CHANGED, m) if self.zone_close(m) else (EMPTY, None)

    def _constrain_into(self, m: np.ndarray, constraints) -> Optional[np.ndarray]:
        """``zone_constrain`` as a matrix: ``m`` itself when unchanged."""
        status, out = self.zone_constrain(m, constraints)
        if status == EMPTY:
            return None
        return m if status == UNCHANGED else out

    def zone_successor(
        self, m: np.ndarray, plan: MovePlan
    ) -> Optional[np.ndarray]:
        out = self._constrain_into(m, plan.guard)
        if out is None:
            return None
        out = out.copy()  # the plumbing below works in place
        stacked = out[None]
        _sk.reset(stacked, plan.resets)
        _sk.shift(stacked, plan.shifts)
        out = self._constrain_into(out, plan.invariant)
        if out is None:
            return None
        if plan.delay:
            _sk.up(out[None])
            out = self._constrain_into(out, plan.invariant)
            if out is None:
                return None
        if plan.caps is not None:
            status, widened = self.zone_extrapolate(out, plan.caps)
            if status == EMPTY:
                return None
            if status == CHANGED:
                out = widened
        return out

    def zone_pred(
        self, m: np.ndarray, plan: MovePlan, source: np.ndarray
    ) -> Optional[np.ndarray]:
        out = m
        if plan.assigns:
            fixed = [(x, 0, (c << 1) | 1) for x, c in plan.assigns] + [
                (0, x, ((-c) << 1) | 1) for x, c in plan.assigns
            ]
            out = self._constrain_into(m, fixed)
            if out is None:
                return None
            out = out.copy()
            _sk.free(out[None], plan.resets)
        out = self._constrain_into(out, plan.guard)
        if out is None:
            return None
        if (out >= source).all():
            return source
        met = np.minimum(out, source)
        if np.array_equal(met, out):
            return out.copy() if out is m else out
        return met if self.zone_close(met) else None

    def close(self, stack: np.ndarray) -> np.ndarray:
        return _sk._close_ref(stack)

    def extrapolate(self, stack: np.ndarray, caps: np.ndarray) -> np.ndarray:
        return _sk._extrapolate_ref(stack, caps)

    def inclusion_matrix(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        return _sk._inclusion_matrix_ref(a, b)

    def reduce_indices(self, stack: np.ndarray) -> List[int]:
        return _sk._reduce_indices_ref(stack)

    def subsume_frontier(
        self, new: np.ndarray, seen: Optional[np.ndarray]
    ) -> Tuple[np.ndarray, np.ndarray]:
        return _sk._subsume_frontier_ref(new, seen)

    def hidden_post_step(
        self,
        stack: np.ndarray,
        guard: Sequence[Constraint],
        resets: Sequence[int],
        shifts: Sequence[Tuple[int, int]],
        invariant: Sequence[Constraint],
        delay: bool,
    ) -> np.ndarray:
        return _sk._hidden_post_step_ref(
            stack, guard, resets, shifts, invariant, delay
        )

    def any_hidden_post(
        self,
        stack: np.ndarray,
        guard: Sequence[Constraint],
        resets: Sequence[int],
        shifts: Sequence[Tuple[int, int]],
        invariant: Sequence[Constraint],
    ) -> bool:
        return _sk._any_hidden_post_ref(
            stack, guard, resets, shifts, invariant
        )
