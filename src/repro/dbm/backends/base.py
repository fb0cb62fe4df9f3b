"""The ``KernelBackend`` protocol: the seam the zone kernels dispatch on.

A backend supplies implementations of the *hot* DBM kernels — the
operations profiling shows every solver fixpoint, state-estimate
closure, and explorer subsumption scan bottoms out in.  Every zone
operation of :class:`~repro.dbm.DBM` and :class:`~repro.dbm.Federation`
that is not a cheap per-entry update runs on exactly one of them.  Four
families:

* the **per-zone** kernels over one canonical ``(dim, dim)`` matrix,
  called by :class:`~repro.dbm.DBM` (``zone_close``,
  ``zone_constrain``, ``zone_extrapolate``);
* the **fused step** kernels, called by
  :class:`~repro.semantics.system.System` and
  :class:`~repro.semantics.compose.StateEstimate`: ``zone_successor``
  runs one whole forward step of the zone graph (guard, clock assignments,
  target invariant, delay closure, ExtraM) and ``zone_pred`` one
  backward step (assignment pre-image, guard, source zone), each on a
  :class:`MovePlan` compiled once per move and discrete state.  One
  call per symbolic step instead of one per zone operation: on the
  explorer, solver and estimator paths the crossing into the backend
  costs more than the arithmetic;
* the **federation** kernels, called by
  :class:`~repro.dbm.Federation` and the game solvers, over
  ``(k, dim, dim)`` stacks of canonical zones: ``fed_subtract`` (exact
  difference), ``fed_predt`` (strict or lenient ``Predt``) and
  ``fixpoint_body`` (the reachability fixpoint equation of one node).
  Solver federations hold about one zone, so one call per operation
  replaces a Python-level loop of tiny zone operations;
* the **graph-node** kernels, called by the zone-graph explorer, the
  game solvers and the state estimate's hidden-move closure, over an
  :class:`ExpansionTable` (steps from one discrete state, compiled
  once): ``zone_expand`` runs ``zone_successor`` for every step of a
  node, ``first_superset`` is the explorer's and the estimate's
  subsumption probe, and ``node_equation`` builds a node's edge terms
  with ``zone_pred`` and runs ``fixpoint_body`` on them.  One call per
  graph node and direction.

Everything else (cheap per-entry updates such as ``up``, ``free`` and
clock assignment) is written once, as :class:`~repro.dbm.DBM` methods,
and stays numpy regardless of the backend.

Exactness contract
==================

For every kernel the backend must return *exactly* the reference
(pure-numpy) result.  ``zone_close`` closes its matrix in place: the
nonempty verdict must be identical and a consistent matrix must come
out byte-identical; an inconsistent one is scratch (the reference leaves
it partially closed, a compiled backend may bail out early) and callers
must never read it.  The per-zone ``zone_constrain`` /
``zone_extrapolate`` kernels never write their input and report a
verdict, :data:`UNCHANGED`, :data:`CHANGED` or
:data:`EMPTY`, which must equal the reference's; only a
:data:`CHANGED` result matrix is read, and it must be byte-identical.
The fused step kernels never write their inputs either; they return
None for the empty zone, else a fresh canonical matrix (``zone_pred``
returns its ``source`` argument itself when the answer is all of it),
and the verdict, that identity and the matrix must all equal the
reference's.  The federation kernels never write their inputs and
return a stack whose zones, *and their order*, must equal the
reference's (``fed_subtract`` returns its first operand itself exactly
when the reference does): the order fixes the solver's rank layers and
so the strategies built on them.  The graph-node kernels never write
their inputs either: ``zone_expand``'s nonempty mask and kept rows
(the others are scratch, as above), ``first_superset``'s index and
``node_equation``'s stack must equal the reference's.

The contract is not a convention but a theorem for any correct
implementation — kept rows are canonical, and canonical forms are
unique — and it is *enforced* by the always-on ``kernel`` differential
check (:mod:`repro.gen.differential`), which fuzzes every available
backend against the numpy reference, while the ``estimate`` check holds
whole state-estimate sessions on each compiled backend to the same
sessions on the reference.

Argument marshalling
====================

Backends receive constraint arguments exactly as the
:class:`~repro.dbm.DBM` methods do: Python sequences of ``(i, j, enc)``
tuples (plus ``caps``, a sequence of ints for ``zone_extrapolate``).
Compiled backends marshal them themselves, to a flat list of ints, so
the numpy reference path pays no conversion cost at all.  A
:class:`MovePlan` carries both forms: the tuples the reference reads and
:attr:`MovePlan.flat`, one ``int64`` vector marshalled once when the
plan is built, so a fused call marshals nothing.  An
:class:`ExpansionTable` likewise carries its plans and one packed vector
of them, :attr:`ExpansionTable.flat`.
"""

from __future__ import annotations

from typing import Optional, Protocol, Sequence, Tuple, runtime_checkable

import numpy as np

from ..bounds import INF

Constraint = Tuple[int, int, int]

#: Per-zone kernel verdicts: nothing tightened or widened (the input zone
#: stands), a new canonical matrix, or the empty zone.
UNCHANGED, CHANGED, EMPTY = 0, 1, 2


def _scaled_constraints(constraints, k: int) -> tuple:
    """``(i, j, enc)`` constraints with every finite constant times ``k``."""
    return tuple(
        (i, j, enc if enc >= INF else (((enc >> 1) * k) << 1) | (enc & 1))
        for i, j, enc in constraints
    )


class MovePlan:
    """One symbolic step of a move, compiled once for the fused kernels.

    ``guard`` and ``invariant`` (the target's) are ``(i, j, enc)``
    constraint tuples, ``assigns`` the move's ``(clock, value)`` clock
    assignments, sorted by clock (a reset assigns 0), ``delay`` whether
    the target lets time pass and ``caps`` the ExtraM max-constant
    vector (None: no extrapolation).  ``resets`` (every assigned clock)
    and ``shifts`` (the nonzero assignments) split ``assigns`` the way
    the kernels apply it: reset all, then shift.

    :attr:`flat` packs everything into one ``int64`` vector for compiled
    backends: the counts ``[ng, nr, ns, ni, delay, ncaps]``, then the
    guard triples, the reset clocks, the shift pairs, the invariant
    triples and the caps (``caps[0]`` zeroed: the reference clock is
    never widened).  :attr:`native` is free for a compiled backend to
    keep its own handle on ``flat`` in; the plan itself stays
    backend-neutral, so a demoted call replays it on the reference.

    Plans are immutable.  :meth:`bare`, :meth:`extrapolating` and
    :meth:`scaled` derive the variants the callers need from one
    compiled plan, and memoize them on it.
    """

    __slots__ = (
        "guard", "assigns", "invariant", "delay", "caps", "resets",
        "shifts", "flat", "native", "_bare", "_capped", "_scaled",
    )

    def __init__(
        self,
        guard: Tuple[Constraint, ...],
        assigns: Tuple[Tuple[int, int], ...],
        invariant: Tuple[Constraint, ...],
        delay: bool,
        caps: Optional[Tuple[int, ...]] = None,
    ):
        self.guard = guard
        self.assigns = assigns
        self.invariant = invariant
        self.delay = delay
        self.caps = caps
        self.resets = tuple(x for x, _ in assigns)
        self.shifts = tuple((x, c) for x, c in assigns if c)
        flat = [
            len(guard), len(self.resets), len(self.shifts), len(invariant),
            int(delay), 0 if caps is None else len(caps),
        ]
        for row in guard:
            flat.extend(row)
        flat.extend(self.resets)
        for row in self.shifts:
            flat.extend(row)
        for row in invariant:
            flat.extend(row)
        if caps is not None:
            flat.append(0)
            flat.extend(caps[1:])
        self.flat = np.asarray(flat, dtype=np.int64)
        self.native = None
        self._bare: Optional["MovePlan"] = None
        self._capped: Optional[tuple] = None
        self._scaled: Optional[tuple] = None

    def bare(self) -> "MovePlan":
        """This step with delay and extrapolation off: the discrete post."""
        if not (self.delay or self.caps is not None):
            return self
        if self._bare is None:
            self._bare = MovePlan(self.guard, self.assigns, self.invariant, False)
        return self._bare

    def extrapolating(self, caps: Optional[Tuple[int, ...]]) -> "MovePlan":
        """This step followed by ExtraM against ``caps`` (None: unchanged).

        Memoized for the last ``caps`` object seen: an explorer passes
        the same tuple on every step.
        """
        if caps is None or caps is self.caps:
            return self
        capped = self._capped
        if capped is None or capped[0] is not caps:
            capped = self._capped = (
                caps,
                MovePlan(self.guard, self.assigns, self.invariant, self.delay, caps),
            )
        return capped[1]

    def scaled(self, k: int) -> "MovePlan":
        """This step on a time axis ``k`` times finer: every bound
        constant, clock value and cap multiplied by ``k``.

        Scaling all values by one positive factor keeps strictness and
        canonical forms, so the scaled plan acts on zones scaled by
        ``k`` exactly as this plan acts on the unscaled ones.  Memoized
        for the last ``k`` seen, like :meth:`extrapolating`.
        """
        if k == 1:
            return self
        memo = self._scaled
        if memo is None or memo[0] != k:
            memo = self._scaled = (
                k,
                MovePlan(
                    _scaled_constraints(self.guard, k),
                    tuple((x, c * k) for x, c in self.assigns),
                    _scaled_constraints(self.invariant, k),
                    self.delay,
                    None if self.caps is None else tuple(c * k for c in self.caps),
                ),
            )
        return memo[1]

    def __reduce__(self):
        # Rebuilt from its parts: ``native`` is a process-local handle.
        return (
            MovePlan,
            (self.guard, self.assigns, self.invariant, self.delay, self.caps),
        )

    def __repr__(self) -> str:
        return (
            f"MovePlan(guard={self.guard}, assigns={self.assigns},"
            f" invariant={self.invariant}, delay={self.delay},"
            f" caps={self.caps})"
        )


class ExpansionTable:
    """Every enabled step from one discrete state, compiled once for the
    graph-node kernels.

    ``moves`` are the moves enabled by the integer guards whose discrete
    part does not block, in enumeration order; ``targets`` their
    successors' ``(locs, vars)``, ``plans`` their :class:`MovePlan` objects
    (with the explorer's ExtraM caps) and ``controllable`` their
    controllability.  A graph edge names its move by its index here, its
    *slot*.

    :attr:`flat` packs the table into one ``int64`` vector for compiled
    backends: the move count ``n``, then per move the offset of its plan
    in ``flat`` and its controllability, then the plans' own ``flat``
    vectors in order.  :attr:`native` is free for a compiled backend's
    handle on it, as on a plan.
    """

    __slots__ = ("moves", "targets", "plans", "controllable", "flat", "native")

    def __init__(self, moves, targets, plans: Sequence[MovePlan]):
        self.moves = tuple(moves)
        self.targets = tuple(targets)
        self.plans = tuple(plans)
        self.controllable = tuple(bool(m.controllable) for m in self.moves)
        n = len(self.plans)
        head = [n]
        offset = 1 + 2 * n
        for plan, ctrl in zip(self.plans, self.controllable):
            head += [offset, int(ctrl)]
            offset += plan.flat.shape[0]
        self.flat = np.concatenate(
            [np.asarray(head, dtype=np.int64)] + [p.flat for p in self.plans]
        )
        self.native = None

    def __repr__(self) -> str:
        return f"ExpansionTable({len(self.moves)} moves)"


@runtime_checkable
class KernelBackend(Protocol):
    """Implementations of the hot zone kernels (see module docstring)."""

    #: Registry name ("numpy", "cext").
    name: str
    #: True for backends that run compiled (native) code.
    compiled: bool

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

    def zone_successor(
        self, m: np.ndarray, plan: MovePlan
    ) -> Optional[np.ndarray]:
        """One forward step of a canonical zone, in one call.

        Guard, reset and shift, target invariant, then with
        ``plan.delay`` up and the invariant again, then with
        ``plan.caps`` ExtraM.  The successor's canonical matrix, or None
        if a constraint empties the zone.
        """
        ...

    def zone_pred(
        self, m: np.ndarray, plan: MovePlan, source: np.ndarray
    ) -> Optional[np.ndarray]:
        """One backward step: the states of ``source`` that ``plan``
        takes into the canonical zone ``m``.

        Fix every assigned clock to its value, free it, apply the guard,
        intersect with ``source``.  The canonical matrix, or None; when
        the pre-image includes all of ``source``, ``source`` itself.
        """
        ...

    def fed_subtract(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """``a \\ b`` for two stacks of canonical zones, reduced.

        Subtracts the zones of ``b`` one at a time: each zone of the
        minuend disjoint from the subtrahend stays, one inside it goes,
        any other is split on the subtrahend's finite constraints in
        row-major order (the ``x >= 0`` bounds skipped), and the list is
        reduced after every subtrahend that removed something.  Returns
        ``a`` itself when nothing was removed.
        """
        ...

    def fed_predt(
        self, goal: np.ndarray, bad: np.ndarray, lenient: bool
    ) -> np.ndarray:
        """``Predt(goal, bad)`` (:mod:`repro.game.predt`), reduced: per bad
        zone ``b``, ``goal↓ \\ b↓`` plus ``((goal ∩ b↓) \\ b')↓`` with
        ``b'`` the strict future of ``b`` when ``lenient`` and ``b``
        itself otherwise, plus ``goal`` when ``lenient``; the results
        for the bad zones intersected pairwise in order."""
        ...

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
        """One node's reachability fixpoint equation
        (:mod:`repro.game.solver`), compacted.

        ``Forced`` is ``u_enabled`` minus ``bad`` within the boundary:
        the faces ``x == c`` of ``zone`` for every non-strict upper bound
        ``x <= c`` of the ``invariant`` matrix when the node can delay,
        all of ``u_enabled`` when it cannot.  Then, with
        ``G_goal = goal ∪ Forced``, the win set is
        ``(Predt(g_act, bad) ∪ Predt_lenient(G_goal, bad)) ∩ zone`` when
        the node can delay and ``((g_act ∪ G_goal) \\ bad) ∪ goal`` when
        it cannot; the result is that united with ``goal``, compacted.
        """
        ...

    def zone_expand(
        self, m: np.ndarray, table: ExpansionTable
    ) -> Tuple[np.ndarray, np.ndarray]:
        """Every step of ``table`` from the canonical zone ``m``, in one
        call: a ``(n, dim, dim)`` stack whose row ``x`` is
        ``zone_successor(m, table.plans[x])`` and the ``(n,)`` mask of
        the nonempty ones (the other rows are scratch)."""
        ...

    def first_superset(self, stack: np.ndarray, m: np.ndarray) -> int:
        """Index of the first zone of ``stack`` that includes the
        canonical zone ``m``, or -1."""
        ...

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
        """One node's reachability fixpoint equation from its out-edges,
        in one call.

        Out-edge ``e`` takes the move ``table.moves[slots[e]]`` to the
        zone ``targets[e]``, whose win stack is ``wins[e]``.  With
        ``Pred_e(F)`` the ``zone_pred`` of each zone of ``F`` into
        ``zone``, reduced: ``G_act`` is the union of ``Pred_e(Win)``
        over the controllable edges, the enabled set the union of
        ``Pred_e(Z)`` over the others and ``B`` the union of their
        ``Pred_e(Z) \\ Pred_e(Win)``, all in edge order.  Returns
        ``fixpoint_body(zone, invariant, goal, G_act, B, enabled,
        can_delay)``.
        """
        ...


#: Every kernel of the :class:`KernelBackend` protocol, in declaration
#: order: the methods a backend implements and a guarded backend wraps.
KERNELS = tuple(
    name
    for name, value in vars(KernelBackend).items()
    if callable(value) and not name.startswith("_")
)


class BackendUnavailable(RuntimeError):
    """A requested backend cannot be loaded (import/toolchain failure)."""
