"""Minimal constraint form of a canonical DBM.

The classic reduction (Larsen/Larsson/Pettersson/Yi): a canonical
nonempty zone is regenerated exactly by a small subset of its
constraints — collapse zero-cycles first, then drop every bound
derivable through an intermediate clock.  The form is *canonical for
canonical inputs*: equal zones produce the identical constraint list,
which makes it the cheapest faithful serialization of a zone (the warm
solve cache stores it).  Interning needs no such key: canonical matrices
are unique, so :meth:`repro.dbm.DBM.hash_key` already identifies a zone.

Promoted here from ``repro.game.warm`` so the DBM layer owns its own
codec; the warm cache imports these functions unchanged.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from ..util import counters
from .bounds import INF, LE_ZERO, add_bounds
from .dbm import DBM, Constraint


def minimal_constraints(zone: DBM) -> List[Tuple[int, int, int]]:
    """A minimal constraint system regenerating a canonical nonempty DBM.

    The classic reduction (Larsen et al.): collapse zero-cycles first —
    clocks ``i ~ j`` iff the bound sum ``m[i,j] + m[j,i]`` is exactly
    ``<= 0`` — keeping one tight constraint cycle through each
    equivalence class, then, among class representatives only (where
    every remaining cycle has positive weight), drop any constraint
    derivable through an intermediate representative.  Closure of the
    result reproduces ``m`` exactly.
    """
    m = zone.m
    dim = zone.dim
    rep = list(range(dim))
    for j in range(dim):
        for i in range(j):
            if rep[i] != i:
                continue
            a, b = int(m[i, j]), int(m[j, i])
            if a < INF and b < INF and add_bounds(a, b) == LE_ZERO:
                rep[j] = i
                break
    out: List[Tuple[int, int, int]] = []
    classes: Dict[int, List[int]] = {}
    for j in range(dim):
        classes.setdefault(rep[j], []).append(j)
    for members in classes.values():
        if len(members) > 1:
            for a, b in zip(members, members[1:] + members[:1]):
                out.append((a, b, int(m[a, b])))
    reps = sorted(classes)
    for i in reps:
        for j in reps:
            if i == j:
                continue
            enc = int(m[i, j])
            if enc >= INF:
                continue
            if i == 0 and enc == 1:  # implicit x_j >= 0 (LE_ZERO)
                continue
            derivable = False
            for k in reps:
                if k == i or k == j:
                    continue
                if add_bounds(int(m[i, k]), int(m[k, j])) <= enc:
                    derivable = True
                    break
            if not derivable:
                out.append((i, j, enc))
    return out


def verified_minimal_constraints(
    zone: DBM, *, fallback_counter: str = "dbm.minform_fallbacks"
) -> List[Constraint]:
    """:func:`minimal_constraints`, round-trip verified.

    If reclosing the minimal system does not reproduce the matrix
    byte-for-byte (it always should; this is a guard, not a code path
    relied upon), fall back to the full constraint set — still an exact
    round-trip by canonicity — and bump ``fallback_counter``.
    """
    cons = minimal_constraints(zone)
    if DBM.from_constraints(zone.dim, cons).hash_key() != zone.hash_key():
        counters.inc(fallback_counter)
        cons = zone.nontrivial_constraints()
    return cons

