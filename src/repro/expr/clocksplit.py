"""Splitting guards into integer atoms and clock atoms.

Edge guards and location invariants are conjunctions of atoms.  Each atom
either involves no clocks (an *integer atom*, evaluated by
:mod:`repro.expr.eval`) or is a *clock atom* of one of the shapes::

    x ~ E      E ~ x      x - y ~ E      E ~ x - y

with ``~ ∈ {<, <=, ==, >=, >}``, ``x``/``y`` clocks, and ``E`` an integer
expression (clock-free; evaluated per discrete state).  Anything else —
disjunctions over clocks, ``!=`` on clocks, arithmetic mixing clocks and
variables — is rejected, mirroring UPPAAL's guard syntax.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from .ast import Binary, Expr, Name, Unary, conjuncts, names_in
from .env import Declarations
from .eval import Context, evaluate, evaluate_bool, static_int_bound


class GuardError(ValueError):
    """Raised when clocks are used in an unsupported guard shape."""


@dataclass(frozen=True)
class ClockAtom:
    """A single clock constraint ``x_i - x_j ~ rhs`` (j may be 0)."""

    i: int
    j: int
    op: str  # '<', '<=', '==', '>=', '>'
    rhs: Expr

    def constraints(self, ctx: Context) -> List[Tuple[int, int, int]]:
        """Encoded DBM constraints for this atom in a discrete context."""
        return self.encode(evaluate(self.rhs, ctx))

    def encode(self, k: int) -> List[Tuple[int, int, int]]:
        """Encoded DBM constraints for this atom with bound value ``k``."""
        from ..dbm.bounds import MAX_BOUND_CONST

        if not -MAX_BOUND_CONST <= k <= MAX_BOUND_CONST:
            raise GuardError(
                f"clock bound constant {k} exceeds the supported range"
                f" ±{MAX_BOUND_CONST}"
            )
        i, j = self.i, self.j
        if self.op == "<":
            return [(i, j, k << 1)]
        if self.op == "<=":
            return [(i, j, (k << 1) | 1)]
        if self.op == ">":
            return [(j, i, (-k) << 1)]
        if self.op == ">=":
            return [(j, i, ((-k) << 1) | 1)]
        if self.op == "==":
            return [(i, j, (k << 1) | 1), (j, i, ((-k) << 1) | 1)]
        raise GuardError(f"unsupported clock comparison {self.op!r}")

    def negated(self) -> "ClockAtom":
        """The complement atom (``==`` has no single complement atom)."""
        flip = {"<": ">=", "<=": ">", ">": "<=", ">=": "<"}
        if self.op not in flip:
            raise GuardError(f"cannot negate clock atom with {self.op!r}")
        return ClockAtom(self.i, self.j, flip[self.op], self.rhs)

    @property
    def is_upper_bound(self) -> bool:
        """True for atoms of the form ``x < E`` / ``x <= E`` (j == 0)."""
        return self.j == 0 and self.op in ("<", "<=")

    @property
    def is_diagonal(self) -> bool:
        return self.i != 0 and self.j != 0


@dataclass(frozen=True)
class SplitGuard:
    """A guard split into its integer part and its clock part."""

    int_atoms: Tuple[Expr, ...]
    clock_atoms: Tuple[ClockAtom, ...]

    def int_holds(self, ctx: Context) -> bool:
        """Whether every integer atom holds in the discrete context."""
        return all(evaluate_bool(atom, ctx) for atom in self.int_atoms)

    def clock_constraints(self, ctx: Context) -> List[Tuple[int, int, int]]:
        """Encoded DBM constraints of all clock atoms in the context."""
        out: List[Tuple[int, int, int]] = []
        for atom in self.clock_atoms:
            out.extend(atom.constraints(ctx))
        return out


TRUE_GUARD = SplitGuard((), ())


def _clock_operand(expr: Expr, decls: Declarations) -> Optional[Tuple[int, int]]:
    """If ``expr`` is a clock or clock difference, return DBM indices (i, j)."""
    if isinstance(expr, Name):
        idx = decls.clock_index(expr.ident)
        if idx is not None:
            return idx, 0
        return None
    if isinstance(expr, Binary) and expr.op == "-":
        if isinstance(expr.lhs, Name) and isinstance(expr.rhs, Name):
            i = decls.clock_index(expr.lhs.ident)
            j = decls.clock_index(expr.rhs.ident)
            if i is not None and j is not None:
                return i, j
            if (i is None) != (j is None):
                raise GuardError(
                    f"mixed clock/integer difference {expr} not supported"
                )
    return None


def _mentions_clock(expr: Expr, decls: Declarations) -> bool:
    return any(decls.clock_index(name) is not None for name in names_in(expr))


_FLIP = {"<": ">", "<=": ">=", ">": "<", ">=": "<=", "==": "=="}


def split_guard(expr: Optional[Expr], decls: Declarations) -> SplitGuard:
    """Split a guard conjunction; raises :class:`GuardError` on bad shapes."""
    if expr is None:
        return TRUE_GUARD
    int_atoms: List[Expr] = []
    clock_atoms: List[ClockAtom] = []
    for atom in conjuncts(expr):
        if not _mentions_clock(atom, decls):
            int_atoms.append(atom)
            continue
        clock_atoms.append(_parse_clock_atom(atom, decls))
    return SplitGuard(tuple(int_atoms), tuple(clock_atoms))


def _parse_clock_atom(atom: Expr, decls: Declarations) -> ClockAtom:
    if isinstance(atom, Unary) and atom.op == "!":
        inner = _parse_clock_atom(atom.operand, decls)
        return inner.negated()
    if not isinstance(atom, Binary) or atom.op not in ("<", "<=", "==", ">=", ">"):
        raise GuardError(
            f"clocks may only appear in comparison atoms, got {atom}"
        )
    lhs_clocks = _clock_operand(atom.lhs, decls)
    rhs_clocks = _clock_operand(atom.rhs, decls)
    if lhs_clocks is not None and not _mentions_clock(atom.rhs, decls):
        return ClockAtom(lhs_clocks[0], lhs_clocks[1], atom.op, atom.rhs)
    if rhs_clocks is not None and not _mentions_clock(atom.lhs, decls):
        return ClockAtom(rhs_clocks[0], rhs_clocks[1], _FLIP[atom.op], atom.lhs)
    raise GuardError(f"unsupported clock atom {atom}")


def update_max_constants(
    atoms: Sequence[ClockAtom], decls: Declarations, max_consts: List[int]
) -> None:
    """Raise per-clock maximum constants to cover the given atoms.

    ``max_consts`` has one entry per DBM index (index 0 unused).
    """
    for atom in atoms:
        bound = static_int_bound(atom.rhs, decls)
        for idx in (atom.i, atom.j):
            if idx != 0:
                max_consts[idx] = max(max_consts[idx], bound)
