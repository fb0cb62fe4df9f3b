"""The numpy reference's subsumption reduction over a zone stack.

Zones here are rows of one ``(k, dim, dim)`` int64 array of canonical
matrices (see :mod:`repro.dbm.bounds`).  The inclusion matrix compares
every pair of rows at once: canonical forms make inclusion of two convex
zones a pointwise comparison, so the matrix is exact per pair (it is a
sufficient but not necessary test for inclusion in a *union* of zones).

:func:`_reduce_indices_ref` is the reduction rule of the federation
kernels' numpy reference (:mod:`repro.dbm.backends.numpy_backend`),
which the compiled backend's ``fed_reduce`` follows step for step.
:class:`~repro.dbm.Federation` reduces its member lists with the same
rule, pair by pair.
"""

from __future__ import annotations

from typing import List

import numpy as np


def _inclusion_matrix_ref(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reference ``(ka, kb)`` inclusion matrix: ``[x, y]`` iff ``b[y] ⊆ a[x]``."""
    return (a[:, None] >= b[None, :]).all(axis=(2, 3))


def _reduce_indices_ref(stack: np.ndarray) -> List[int]:
    """Indices surviving subsumption reduction, in order.

    Drops every zone strictly included in another zone, and every zone
    equal to an earlier one (the earliest of each equality class stays).
    """
    inc = _inclusion_matrix_ref(stack, stack)
    strict = inc & ~inc.T
    equal = inc & inc.T
    dominated = strict.any(axis=0) | np.triu(equal, 1).any(axis=0)
    return [int(i) for i in np.flatnonzero(~dominated)]
