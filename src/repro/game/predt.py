"""The safe-timed-predecessor operator ``Predt``.

``Predt(G, B)`` is the set of states from which the controller can delay
into the target set ``G`` while avoiding the opponent-bad set ``B`` on the
way.  Two arrival conventions are needed (see DESIGN.md):

* **strict** (``[0, δ]``) — every point of the delay *including the
  arrival instant* must avoid ``B``.  Used when the arrival is followed by
  a controller action: if the opponent can act at the same instant, the
  tie is resolved adversarially.
* **lenient** (``[0, δ)``) — the arrival instant itself may touch ``B``.
  Used when arriving *in* the goal (the run has already won) or in a
  forced-move state.

Identities used (derived and property-tested in ``tests/test_predt.py``)::

    Predt(∪_i g_i, b)  = ∪_i Predt(g_i, b)
    Predt(G, ∪_j b_j)  = ∩_j Predt(G, b_j)       (blocked-delay intervals
                                                   are totally ordered)
    strict  (g, b) = (g↓ \\ b↓) ∪ ((g ∩ b↓) \\ b)↓
    lenient (g, b) = (g↓ \\ b↓) ∪ ((g ∩ b↓) \\ up_strict(b))↓
"""

from __future__ import annotations

from ..dbm import DBM, Federation
from ..dbm import backends as _backends
from ..dbm.backends.numpy_backend import up_strict_matrix


def up_strict(zone: DBM) -> DBM:
    """``{v + d | v ∈ zone, d > 0}``: the strict future of a zone."""
    if zone.is_empty():
        return zone
    return DBM(up_strict_matrix(zone.m))


def predt(goal: Federation, bad: Federation, *, lenient: bool = False) -> Federation:
    """``Predt(goal, bad)`` over federations.

    With ``lenient=True`` the arrival instant may coincide with ``bad``
    (use for goal / forced-move targets); the start instant must avoid
    ``bad`` either way unless the delay is zero and ``lenient`` holds.

    One ``fed_predt`` kernel call: ``Predt(∪_i g_i, b) = ∪_i Predt(g_i,
    b)`` lets the kernel work on the whole goal per bad zone, with
    ``goal↓`` computed once and shared across all bad zones, and
    intersect the per-bad-zone results.
    """
    if goal.is_empty():
        return goal
    rows = _backends.active().fed_predt(goal._rows(), bad._rows(), lenient)
    return Federation._adopt(goal.dim, rows)


def predt_mixed(
    action_targets: Federation,
    goal_targets: Federation,
    bad: Federation,
) -> Federation:
    """Union of strict-arrival and lenient-arrival Predt components."""
    result = predt(action_targets, bad, lenient=False)
    lenient_part = predt(goal_targets, bad, lenient=True)
    return result.union(lenient_part)
