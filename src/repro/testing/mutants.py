"""Mutation operators: systematically derived faulty implementations.

The paper's future work item 3 asks for "evaluating strategy-based test
effectiveness in terms of fault detecting capability".  This module
implements the classic timed-automata mutation operators over prepared
networks (working on the original expression ASTs, then re-preparing):

* ``shift_guard_constant``   — off-by-delta timing faults;
* ``widen_invariant``        — outputs later than the spec allows;
* ``retarget_edge``          — wrong successor location;
* ``swap_output_channel``    — wrong output action;
* ``drop_edge``              — missing behaviour (detectable only when the
  spec *forces* the behaviour);
* ``add_spurious_edge``      — extra behaviour the spec forbids.

Each operator returns a *new* network; the original is never touched.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import List, Optional, Tuple

from ..expr.ast import Binary, Expr, IntLiteral, Unary
from ..expr.parser import parse_assignments, parse_expression
from ..ta.model import Automaton, Edge, Network


class MutationError(ValueError):
    """Raised when a mutation cannot be applied (e.g. no matching edge)."""


# ----------------------------------------------------------------------
# Cloning
# ----------------------------------------------------------------------


def clone_network(network: Network, name_suffix: str = "-mutant") -> Network:
    """Deep-copy a network into an unprepared clone sharing declarations.

    Declarations are immutable in practice once built, so sharing them is
    safe; automata, locations, and edges are re-created so mutations never
    leak into the original.
    """
    clone = Network(network.name + name_suffix, network.decls)
    for channel in network.channels.values():
        clone.add_channel(channel.name, channel.kind)
    for automaton in network.automata:
        fresh = Automaton(automaton.name)
        for loc in automaton.location_list:
            fresh.add_location(
                loc.name,
                loc.invariant,
                initial=(loc.name == automaton.initial),
                committed=loc.committed,
                urgent=loc.urgent,
            )
        for edge in automaton.edges:
            fresh.add_edge(
                Edge(
                    automaton=edge.automaton,
                    source=edge.source,
                    target=edge.target,
                    guard=edge.guard,
                    sync=edge.sync,
                    assigns=edge.assigns,
                    controllable=edge.controllable,
                )
            )
        clone.add_automaton(fresh)
    return clone


# ----------------------------------------------------------------------
# Edge selection
# ----------------------------------------------------------------------


def find_edges(
    network: Network,
    *,
    automaton: Optional[str] = None,
    source: Optional[str] = None,
    target: Optional[str] = None,
    sync: Optional[str] = None,
) -> List[Tuple[Automaton, int]]:
    """Edges matching the given criteria, as (automaton, edge position)."""
    matches: List[Tuple[Automaton, int]] = []
    for aut in network.automata:
        if automaton is not None and aut.name != automaton:
            continue
        for pos, edge in enumerate(aut.edges):
            if source is not None and edge.source != source:
                continue
            if target is not None and edge.target != target:
                continue
            if sync is not None:
                if edge.sync is None or edge.sync[0] + edge.sync[1] != sync:
                    continue
            matches.append((aut, pos))
    return matches


def _single_edge(network: Network, **criteria) -> Tuple[Automaton, int]:
    matches = find_edges(network, **criteria)
    if not matches:
        raise MutationError(f"no edge matches {criteria}")
    return matches[0]


# ----------------------------------------------------------------------
# Expression surgery
# ----------------------------------------------------------------------


def _shift_literals(expr: Expr, delta: int) -> Expr:
    """Shift every comparison's right-hand side by ``delta``.

    Literal bounds are folded (``x <= 2`` becomes ``x <= 4``); symbolic
    bounds are wrapped (``x >= Tidle`` becomes ``x >= Tidle + 2``).
    """
    if isinstance(expr, Unary):
        return Unary(expr.op, _shift_literals(expr.operand, delta))
    if isinstance(expr, Binary):
        if expr.op in ("<", "<=", "==", ">=", ">"):
            rhs = expr.rhs
            if isinstance(rhs, IntLiteral):
                shifted: Expr = IntLiteral(rhs.value + delta)
            elif delta >= 0:
                shifted = Binary("+", rhs, IntLiteral(delta))
            else:
                shifted = Binary("-", rhs, IntLiteral(-delta))
            return Binary(expr.op, expr.lhs, shifted)
        return Binary(
            expr.op, _shift_literals(expr.lhs, delta), _shift_literals(expr.rhs, delta)
        )
    return expr


# ----------------------------------------------------------------------
# Mutation operators
# ----------------------------------------------------------------------


def shift_guard_constant(network: Network, delta: int, **criteria) -> Network:
    """Shift the constants of the selected edge's guard by ``delta``."""
    mutant = clone_network(network, f"-guard{delta:+d}")
    aut, pos = _single_edge(mutant, **criteria)
    edge = aut.edges[pos]
    if edge.guard is None:
        raise MutationError(f"edge {edge.describe()} has no guard to shift")
    aut.edges[pos] = replace(edge, guard=_shift_literals(edge.guard, delta))
    return mutant.prepare()


def widen_invariant(
    network: Network, automaton: str, location: str, delta: int
) -> Network:
    """Shift the invariant bound of a location by ``delta`` (may widen or
    narrow; widening lets a mutant produce outputs later than the spec)."""
    mutant = clone_network(network, f"-inv{delta:+d}")
    aut = mutant.automaton(automaton)
    loc = aut.locations.get(location)
    if loc is None or loc.invariant is None:
        raise MutationError(f"{automaton}.{location} has no invariant")
    loc.invariant = _shift_literals(loc.invariant, delta)
    return mutant.prepare()


def retarget_edge(network: Network, new_target: str, **criteria) -> Network:
    """Point the selected edge at a different target location."""
    mutant = clone_network(network, f"-to-{new_target}")
    aut, pos = _single_edge(mutant, **criteria)
    if new_target not in aut.locations:
        raise MutationError(f"unknown target {aut.name}.{new_target}")
    aut.edges[pos] = replace(aut.edges[pos], target=new_target)
    return mutant.prepare()


def swap_output_channel(network: Network, new_channel: str, **criteria) -> Network:
    """Replace the selected edge's output channel (wrong output fault)."""
    mutant = clone_network(network, f"-says-{new_channel}")
    if new_channel not in mutant.channels:
        raise MutationError(f"unknown channel {new_channel}")
    aut, pos = _single_edge(mutant, **criteria)
    edge = aut.edges[pos]
    if edge.sync is None:
        raise MutationError(f"edge {edge.describe()} has no sync to swap")
    aut.edges[pos] = replace(edge, sync=(new_channel, edge.sync[1]))
    return mutant.prepare()


def drop_edge(network: Network, **criteria) -> Network:
    """Remove the selected edge entirely (missing behaviour)."""
    mutant = clone_network(network, "-dropped")
    aut, pos = _single_edge(mutant, **criteria)
    del aut.edges[pos]
    return mutant.prepare()


def add_spurious_edge(
    network: Network,
    automaton: str,
    source: str,
    target: str,
    *,
    guard: Optional[str] = None,
    sync: Optional[str] = None,
    assign: Optional[str] = None,
) -> Network:
    """Add an edge the specification does not have (extra behaviour)."""
    mutant = clone_network(network, "-spurious")
    aut = mutant.automaton(automaton)
    sync_pair = None
    if sync is not None:
        sync = sync.strip()
        sync_pair = (sync[:-1], sync[-1])
    aut.add_edge(
        Edge(
            automaton=automaton,
            source=source,
            target=target,
            guard=parse_expression(guard) if guard else None,
            sync=sync_pair,
            assigns=tuple(parse_assignments(assign)) if assign else (),
        )
    )
    return mutant.prepare()


@dataclass(frozen=True)
class Mutant:
    """A named mutant for fault-detection experiments."""

    name: str
    network: Network
    description: str
    # Whether a targeted test for the associated purpose is *expected* to
    # catch it (some mutants are tioco-conforming or off-purpose).
    expected_caught: Optional[bool] = None


# ----------------------------------------------------------------------
# Picklable mutant descriptions (for sharded campaigns)
# ----------------------------------------------------------------------

#: Operator registry: the name half of a :class:`MutantSpec`.
OPERATORS = {
    "shift_guard_constant": shift_guard_constant,
    "widen_invariant": widen_invariant,
    "retarget_edge": retarget_edge,
    "swap_output_channel": swap_output_channel,
    "drop_edge": drop_edge,
    "add_spurious_edge": add_spurious_edge,
}


@dataclass(frozen=True)
class MutantSpec:
    """A mutant as *data*: operator name plus keyword arguments.

    Prepared networks are heavy and mutation is cheap, so the sharded
    fault-detection campaign (:class:`repro.testing.campaign.
    MutationCampaign`) ships these descriptions across the worker pool
    and every worker rebuilds its mutants from the base network —
    picklable by construction, reproducible independent of scheduling.
    """

    name: str
    operator: str
    params: Tuple[Tuple[str, object], ...] = ()
    description: str = ""
    expected_caught: Optional[bool] = None

    @classmethod
    def make(
        cls,
        name: str,
        operator: str,
        description: str = "",
        expected_caught: Optional[bool] = None,
        **params,
    ) -> "MutantSpec":
        """Spec with ``params`` given as keywords (sorted for stability)."""
        if operator not in OPERATORS:
            raise MutationError(
                f"unknown mutation operator {operator!r};"
                f" known: {', '.join(sorted(OPERATORS))}"
            )
        return cls(
            name,
            operator,
            tuple(sorted(params.items())),
            description,
            expected_caught,
        )

    def build(self, network: Network) -> Mutant:
        """Apply the described operator to (a clone of) ``network``."""
        operator = OPERATORS[self.operator]
        return Mutant(
            self.name,
            operator(network, **dict(self.params)),
            self.description or self.name,
            self.expected_caught,
        )
