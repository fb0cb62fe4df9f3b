"""Minimal constraint form of a canonical DBM, and the zone JSON codec.

The classic reduction (Larsen/Larsson/Pettersson/Yi): a canonical
nonempty zone is regenerated exactly by a small subset of its
constraints — collapse zero-cycles first, then drop every bound
derivable through an intermediate clock.  The form is *canonical for
canonical inputs*: equal zones produce the identical constraint list,
which makes it the cheapest faithful serialization of a zone.  Interning
needs no such key: canonical matrices are unique, so
:meth:`repro.dbm.DBM.hash_key` already identifies a zone.

:func:`zone_to_obj` / :func:`zone_from_obj` and their federation forms
are the repo's one zone JSON codec: the win-set cache
(:mod:`repro.game.warm`) and strategy files (:mod:`repro.game.export`)
both store zones this way.  Decoding recloses every record and rejects
one that is malformed, indexes a clock out of range, or closes to the
empty zone (:class:`ZoneFormatError`).
"""

from __future__ import annotations

from typing import Dict, List, Sequence, Tuple

from ..util import counters
from .bounds import INF, LE_ZERO, add_bounds
from .dbm import DBM, Constraint
from .federation import Federation


class ZoneFormatError(ValueError):
    """A serialized zone record is malformed or denotes no valuation."""


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


def verified_minimal_constraints(zone: DBM) -> List[Constraint]:
    """:func:`minimal_constraints`, round-trip verified.

    If reclosing the minimal system does not reproduce the matrix
    byte-for-byte (it always should; this is a guard, not a code path
    relied upon), fall back to the full constraint set — still an exact
    round-trip by canonicity — and bump ``dbm.minform_fallbacks``.
    """
    cons = minimal_constraints(zone)
    if DBM.from_constraints(zone.dim, cons).hash_key() != zone.hash_key():
        counters.inc("dbm.minform_fallbacks")
        cons = zone.nontrivial_constraints()
    return cons


def zone_to_obj(zone: DBM) -> List[List[int]]:
    """A nonempty canonical zone as its minimal constraint list."""
    cons = verified_minimal_constraints(zone)
    return [[int(i), int(j), int(enc)] for i, j, enc in cons]


def zone_from_obj(dim: int, obj: Sequence[Sequence[int]]) -> DBM:
    """Rebuild (and reclose) a zone from :func:`zone_to_obj` output."""
    try:
        cons = [(int(i), int(j), int(enc)) for i, j, enc in obj]
    except (TypeError, ValueError) as exc:
        raise ZoneFormatError(f"malformed zone record: {exc}") from exc
    for i, j, _ in cons:
        if not (0 <= i < dim and 0 <= j < dim):
            raise ZoneFormatError(
                f"zone record indexes clock pair ({i}, {j}) of a {dim}-dim zone"
            )
    zone = DBM.from_constraints(dim, cons)
    if zone.is_empty():
        raise ZoneFormatError("zone record closes to the empty zone")
    return zone


def federation_to_obj(fed: Federation) -> List[List[List[int]]]:
    """A federation as a list of minimal-constraint zones (exact)."""
    return [zone_to_obj(z) for z in fed.zones]


def federation_from_obj(dim: int, obj: Sequence) -> Federation:
    """Rebuild a federation from :func:`federation_to_obj` output."""
    if not isinstance(obj, list):
        raise ZoneFormatError("federation record is not a list of zones")
    return Federation(dim, [zone_from_obj(dim, zone) for zone in obj])
