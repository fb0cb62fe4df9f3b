"""The pure-numpy kernel backend: the reference.

A thin class over the ``_*_ref`` bodies in :mod:`repro.dbm.stack` plus
the per-zone reference kernels below — the exact code every other
backend is differentially fuzzed against.  It adds nothing to the
stacked kernels: no marshalling, no copies, no extra counters beyond
the dispatch layer's.  The fused step kernels compose this class's own
per-zone kernels with the stack module's reset/shift/free/up plumbing,
one operation at a time, so the reference for a fused call is the
sequence of zone operations it stands for.

The federation kernels (``fed_subtract``, ``fed_predt`` and
``fixpoint_body``) are the solver's federation algebra written over
lists of canonical matrices: zone subtraction splitting on the
subtrahend's constraints in row-major order, subsumption reduction after
every step that can add zones, ``Predt`` per bad zone, and the exact
single-pass ``compact``.  They fix the zones a compiled backend must
return and their order, not just the sets.  The graph-node kernels
(``zone_expand``, ``first_superset``, ``node_equation``) loop this
class's fused step and federation kernels over an expansion table, or
broadcast one comparison over a zone stack.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .. import stack as _sk
from ..bounds import INF, INF_SOFT, LE_ZERO, add_bounds
from .base import CHANGED, EMPTY, UNCHANGED, ExpansionTable, MovePlan

Constraint = Tuple[int, int, int]


def _stacked(zones: List[np.ndarray], dim: int) -> np.ndarray:
    """A list of ``(dim, dim)`` matrices as one fresh ``(k, dim, dim)`` stack."""
    if not zones:
        return np.empty((0, dim, dim), dtype=np.int64)
    return np.stack(zones)


def _reduced(zones: List[np.ndarray]) -> List[np.ndarray]:
    """Subsumption reduction: drop every zone included in another one
    (the earliest of equal zones stays), keeping the input order."""
    if len(zones) < 2:
        return zones
    if len(zones) == 2:
        a, b = zones
        if (a >= b).all():
            return [a]
        return [b] if (b >= a).all() else zones
    return [zones[i] for i in _sk._reduce_indices_ref(np.stack(zones))]


def _union(a: List[np.ndarray], b: List[np.ndarray]) -> List[np.ndarray]:
    if not b:
        return a
    if not a:
        return b
    return _reduced(a + b)


def _disjoint(a: np.ndarray, b: np.ndarray) -> bool:
    """Exact disjointness of two canonical nonempty zones."""
    return bool((_sk.saturating_add(a, b.T) < LE_ZERO).any())


def up_strict_matrix(m: np.ndarray) -> np.ndarray:
    """``{v + d | v in m, d > 0}``: drop the upper bounds and make every
    lower bound strict, on a copy.  Not reclosed: removing upper bounds
    and tightening every lower bound alike keeps the matrix canonical."""
    out = m.copy()
    out[1:, 0] = INF
    row = out[0, 1:]
    out[0, 1:] = np.where(row < INF, row & ~np.int64(1), row)
    return out


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
        if plan.resets:
            _sk.reset(stacked, plan.resets)
        if plan.shifts:
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

    # ------------------------------------------------------------------
    # Federation kernels
    # ------------------------------------------------------------------

    def _meet(self, a: np.ndarray, b: np.ndarray) -> Optional[np.ndarray]:
        """``a ∩ b`` as a canonical matrix, or None."""
        if (a >= b).all():
            return b
        if (b >= a).all():
            return a
        if _disjoint(a, b):
            return None
        met = np.minimum(a, b)
        return met if self.zone_close(met) else None

    def _down(self, m: np.ndarray) -> np.ndarray:
        """The delay predecessors of a nonempty zone (never empty)."""
        out = m.copy()
        out[0, 1:] = LE_ZERO
        self.zone_close(out)
        return out

    def _split(self, a: np.ndarray, b: np.ndarray) -> Optional[List[np.ndarray]]:
        """``a \\ b`` as disjoint pieces; None when ``a`` survives whole.

        Splits ``a`` on each finite constraint of ``b`` in row-major
        order, leaving out the implicit ``x >= 0`` bounds: the part of
        the remainder violating the constraint is a piece, the rest
        satisfies it and goes on to the next one.
        """
        if (b >= a).all():
            return []
        if _disjoint(a, b):
            return None
        pieces: List[np.ndarray] = []
        rem = a
        for i, row in enumerate(b.tolist()):
            for j, enc in enumerate(row):
                if i == j or enc >= INF or (i == 0 and enc == LE_ZERO):
                    continue
                neg = (-(enc >> 1) << 1) | (~enc & 1)  # the complement
                piece = self._constrain_into(rem, ((j, i, neg),))
                if piece is not None:
                    pieces.append(piece)
                rem = self._constrain_into(rem, ((i, j, enc),))
                if rem is None:
                    return pieces
        return pieces

    def _subtract(
        self, zones: List[np.ndarray], subtrahends
    ) -> Tuple[List[np.ndarray], bool]:
        """``zones \\ subtrahends`` zone by zone, reducing after every
        subtrahend that removed something; also whether anything was."""
        changed = False
        for b in subtrahends:
            if not zones:
                break
            out: List[np.ndarray] = []
            touched = False
            for a in zones:
                pieces = self._split(a, b)
                if pieces is None:
                    out.append(a)
                else:
                    out.extend(pieces)
                    touched = True
            if touched:
                zones = _reduced(out)
                changed = True
        return zones, changed

    def _covered(self, zone: np.ndarray, others: List[np.ndarray]) -> bool:
        """Exact ``zone ⊆ ∪ others``."""
        left = [zone]
        for mine in others:
            nxt: List[np.ndarray] = []
            for piece in left:
                split = self._split(piece, mine)
                nxt.extend([piece] if split is None else split)
            left = nxt
            if not left:
                return True
        return False

    def _compact(self, zones: List[np.ndarray]) -> List[np.ndarray]:
        """Drop, in one pass, every zone covered by the others' union."""
        kept = list(zones)
        idx = 0
        while len(kept) > 1 and idx < len(kept):
            if self._covered(kept[idx], kept[:idx] + kept[idx + 1 :]):
                kept.pop(idx)
            else:
                idx += 1
        return kept

    def _predt(self, goal: List[np.ndarray], bad: List[np.ndarray], lenient: bool):
        """``Predt(goal, bad)`` over lists (see :mod:`repro.game.predt`)."""
        if not goal:
            return goal
        goal_down = _reduced([self._down(g) for g in goal])
        result: Optional[List[np.ndarray]] = None
        for b in bad:
            b_down = self._down(b)
            acc, _ = self._subtract(goal_down, (b_down,))
            overlap = _reduced(
                [c for g in goal if (c := self._meet(g, b_down)) is not None]
            )
            if overlap:
                blocker = up_strict_matrix(b) if lenient else b
                left, _ = self._subtract(overlap, (blocker,))
                acc = _union(acc, _reduced([self._down(p) for p in left]))
            if lenient:
                # Zero-delay arrival in the goal always wins under [0, δ).
                acc = _union(acc, goal)
            if result is not None:
                acc = _reduced(
                    [
                        c
                        for x in result
                        for y in acc
                        if (c := self._meet(x, y)) is not None
                    ]
                )
            result = acc
            if not result:
                break
        return goal_down if result is None else result

    def fed_subtract(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        zones, changed = self._subtract(list(a), list(b))
        return _stacked(zones, a.shape[-1]) if changed else a

    def fed_predt(
        self, goal: np.ndarray, bad: np.ndarray, lenient: bool
    ) -> np.ndarray:
        return _stacked(
            self._predt(list(goal), list(bad), lenient), goal.shape[-1]
        )

    def _boundary(self, zone: np.ndarray, invariant: np.ndarray) -> List[np.ndarray]:
        """The faces ``x == c`` of ``zone`` for each clock the invariant
        bounds by a non-strict ``x <= c`` (a strict bound has no last
        instant): where the invariant blocks any further delay."""
        faces = []
        for x, enc in enumerate(invariant[:, 0].tolist()):
            if x == 0 or enc >= INF or not enc & 1:
                continue
            c = enc >> 1
            face = self._constrain_into(zone, ((x, 0, (c << 1) | 1), (0, x, (-c << 1) | 1)))
            if face is not None:
                faces.append(face)
        return _reduced(faces)

    def fixpoint_body(
        self,
        zone: np.ndarray,
        invariant: np.ndarray,
        goal: np.ndarray,
        g_act: np.ndarray,
        bad: np.ndarray,
        u_enabled: np.ndarray,
        can_delay: bool,
    ) -> np.ndarray:
        goal_l, bad_l = list(goal), list(bad)
        forced = list(u_enabled)
        if can_delay and forced:
            forced = _reduced(
                [
                    c
                    for face in self._boundary(zone, invariant)
                    for u in forced
                    if (c := self._meet(face, u)) is not None
                ]
            )
        forced, _ = self._subtract(forced, bad_l)
        g_goal = _union(goal_l, forced)
        if can_delay:
            mixed = _union(
                self._predt(list(g_act), bad_l, False),
                self._predt(g_goal, bad_l, True),
            )
            win = _reduced(
                [c for w in mixed if (c := self._meet(w, zone)) is not None]
            )
        else:
            win, _ = self._subtract(_union(list(g_act), g_goal), bad_l)
            win = _union(win, goal_l)
        return _stacked(self._compact(_union(win, goal_l)), zone.shape[0])

    # ------------------------------------------------------------------
    # Graph-node kernels
    # ------------------------------------------------------------------

    def zone_expand(
        self, m: np.ndarray, table: ExpansionTable
    ) -> Tuple[np.ndarray, np.ndarray]:
        n, dim = len(table.plans), m.shape[0]
        out = np.empty((n, dim, dim), dtype=np.int64)
        ok = np.zeros(n, dtype=bool)
        for x, plan in enumerate(table.plans):
            row = self.zone_successor(m, plan)
            if row is not None:
                out[x] = row
                ok[x] = True
        return out, ok

    def first_superset(self, stack: np.ndarray, m: np.ndarray) -> int:
        if not stack.shape[0]:
            return -1
        hits = (stack >= m).all(axis=(1, 2))
        idx = int(np.argmax(hits))
        return idx if hits[idx] else -1

    def _pred(self, zones, plan: MovePlan, source: np.ndarray) -> List[np.ndarray]:
        """``Pred`` of a stack through a plan into ``source``, reduced."""
        out = [p for z in zones if (p := self.zone_pred(z, plan, source)) is not None]
        return _reduced(out)

    def node_equation(
        self,
        zone: np.ndarray,
        invariant: np.ndarray,
        goal: np.ndarray,
        can_delay: bool,
        table: ExpansionTable,
        slots: Sequence[int],
        targets: np.ndarray,
        wins: Sequence[np.ndarray],
    ) -> np.ndarray:
        g_act: List[np.ndarray] = []
        bad: List[np.ndarray] = []
        u_enabled: List[np.ndarray] = []
        for slot, target, win in zip(slots, targets, wins):
            plan = table.plans[slot]
            if table.controllable[slot]:
                g_act = _union(g_act, self._pred(win, plan, zone))
                continue
            enabled = self._pred((target,), plan, zone)
            u_enabled = _union(u_enabled, enabled)
            if enabled and len(win):
                enabled, _ = self._subtract(enabled, self._pred(win, plan, zone))
            bad = _union(bad, enabled)
        dim = zone.shape[0]
        return self.fixpoint_body(
            zone,
            invariant,
            goal,
            _stacked(g_act, dim),
            _stacked(bad, dim),
            _stacked(u_enabled, dim),
            can_delay,
        )

    def close(self, stack: np.ndarray) -> np.ndarray:
        return _sk._close_ref(stack)

    def extrapolate(self, stack: np.ndarray, caps: np.ndarray) -> np.ndarray:
        return _sk._extrapolate_ref(stack, caps)

    def reduce_indices(self, stack: np.ndarray) -> List[int]:
        return _sk._reduce_indices_ref(stack)
