"""Model validation: the paper's §2.2 restrictions on plant models.

The test method requires the plant TIOGA to be

* **deterministic** — no two simultaneously enabled edges with the same
  action lead to different states, and
* **strongly input-enabled** — every input action is accepted in every
  reachable state.

Both are semantic properties; we check them over the explored simulation
graph (exact up to the exploration bound).  The checks are used by the
test suite and available to library users as pre-flight diagnostics.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..dbm import Federation
from ..graph.explorer import SimulationGraph
from ..semantics.system import OPEN, System


@dataclass
class ValidationIssue:
    kind: str  # 'nondeterminism' | 'input-refusal' | 'urgent-timelock'
    message: str

    def __str__(self) -> str:
        return f"[{self.kind}] {self.message}"


@dataclass
class ValidationReport:
    issues: List[ValidationIssue] = field(default_factory=list)
    nodes_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.issues

    def add(self, kind: str, message: str) -> None:
        self.issues.append(ValidationIssue(kind, message))

    def __str__(self) -> str:
        if self.ok:
            return f"valid ({self.nodes_checked} symbolic states checked)"
        return "\n".join(str(i) for i in self.issues)


def check_determinism(
    system: System,
    *,
    mode: str = OPEN,
    max_nodes: Optional[int] = 20_000,
) -> ValidationReport:
    """Check that same-label moves never overlap with different effects."""
    report = ValidationReport()
    graph = SimulationGraph(system, mode=mode, max_nodes=max_nodes)
    graph.explore_all()
    report.nodes_checked = graph.node_count
    channels = system.network.channels
    for node in graph.nodes:
        by_label: dict = {}
        for edge in node.out_edges:
            if edge.move.direction == "internal":
                continue
            channel = channels.get(edge.move.label)
            if channel is not None and channel.broadcast and (
                edge.move.direction == "input"
            ):
                # Broadcast receive halves in *different* automata fire
                # together in the closed semantics (fan-out, not choice),
                # so group per automaton: only same-automaton alternatives
                # on the same broadcast channel are a genuine choice.
                key = (edge.move.label, edge.move.edges[0][0])
            else:
                key = edge.move.label
            by_label.setdefault(key, []).append(edge)
        for key, edges in by_label.items():
            label = key if isinstance(key, str) else key[0]
            if len(edges) < 2:
                continue
            for a in range(len(edges)):
                for b in range(a + 1, len(edges)):
                    e1, e2 = edges[a], edges[b]
                    if e1.target.id == e2.target.id:
                        # Same symbolic successor: check the guard zones
                        # produce identical posts where they overlap.
                        pass
                    z1 = node.zone.constrained(
                        system.guard_constraints(e1.move, node.sym.vars)
                    )
                    z2 = node.zone.constrained(
                        system.guard_constraints(e2.move, node.sym.vars)
                    )
                    overlap = z1.intersect(z2)
                    if overlap.is_empty():
                        continue
                    s1 = system.post(node.sym, e1.move)
                    s2 = system.post(node.sym, e2.move)
                    if s1 is None or s2 is None:
                        continue
                    if (
                        s1.key != s2.key
                        or system.resets_of(e1.move) != system.resets_of(e2.move)
                    ):
                        report.add(
                            "nondeterminism",
                            f"action {label} has overlapping enabled edges with"
                            f" different effects at {node.sym.locs}"
                            f" (guards overlap on {overlap.to_string()})",
                        )
    return report


def check_input_enabledness(
    system: System,
    *,
    max_nodes: Optional[int] = 20_000,
) -> ValidationReport:
    """Check every input channel is accepted in every reachable state.

    Checks the *open-system* semantics of a plant model: for each node of
    the simulation graph and each input channel, the union of the guards
    of enabled receiving edges must cover the node's whole zone.
    """
    report = ValidationReport()
    graph = SimulationGraph(system, mode=OPEN, max_nodes=max_nodes)
    graph.explore_all()
    report.nodes_checked = graph.node_count
    inputs = set(system.network.channel_names("input"))
    for node in graph.nodes:
        if system.has_committed(node.sym.locs):
            continue  # committed processing states resolve instantly
        # Urgent states do NOT resolve silently: they settle as observable
        # waiting points (quiescence bound 0), so inputs must be accepted
        # there like anywhere else.
        covered = {name: Federation.empty(system.dim) for name in inputs}
        for edge in node.out_edges:
            if edge.move.direction != "input":
                continue
            if edge.move.label not in covered:
                # Broadcast receive halves: a disabled receiver never
                # blocks the cast, so no enabledness obligation.
                continue
            zone = node.zone.constrained(
                system.guard_constraints(edge.move, node.sym.vars)
            )
            covered[edge.move.label] = covered[edge.move.label].union_zone(zone)
        whole = Federation.from_zone(node.zone)
        for name in sorted(inputs):
            if not covered[name].includes(whole):
                missing = whole.subtract(covered[name])
                report.add(
                    "input-refusal",
                    f"input {name}? refused at {node.sym.locs} for clock"
                    f" valuations {missing.to_string()}",
                )
    return report


def check_urgent_escapes(system: System) -> ValidationReport:
    """Static check that urgent locations cannot freeze time forever.

    An urgent location blocks all delay, so if every outgoing edge can be
    disabled the model can reach an instant where nothing is enabled and
    time cannot pass — a timelock the monitors would report as a
    (spurious) quiescence violation.  The static criterion: every urgent
    location must keep at least one *unconditional* outgoing edge — no
    clock constraints (a clock window may already have passed on entry)
    and no integer guard (a variable state may never satisfy it).  This
    is a conservative approximation: it does not prove the escape's
    target invariant admits entry (generated models guarantee that via
    entry resets), and it may reject models whose guarded edges happen to
    cover all reachable valuations.
    """
    report = ValidationReport()
    for automaton in system.automata:
        for loc in automaton.location_list:
            if not loc.urgent:
                continue
            escapes = [
                edge
                for edge in automaton.out_edges(loc.name)
                if not edge.guard_split.clock_atoms
                and not edge.guard_split.int_atoms
            ]
            if not escapes:
                report.add(
                    "urgent-timelock",
                    f"urgent location {automaton.name}.{loc.name} has no"
                    f" unconditional (guard-free) outgoing edge; time can"
                    f" freeze with no enabled action",
                )
    return report


def validate_plant(system: System, *, max_nodes: Optional[int] = 20_000) -> ValidationReport:
    """Combined §2.2 checks for a plant model (determinism + enabledness +
    urgent-location escapes)."""
    report = check_determinism(system, max_nodes=max_nodes)
    enabled = check_input_enabledness(system, max_nodes=max_nodes)
    report.issues.extend(enabled.issues)
    report.nodes_checked = max(report.nodes_checked, enabled.nodes_checked)
    report.issues.extend(check_urgent_escapes(system).issues)
    return report
