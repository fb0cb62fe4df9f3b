"""Urgent-location semantics: delay freeze, no priority, monitor settling.

The defined rules under test (see ``repro.semantics.system``):

* urgent locations freeze delay exactly like committed ones (``d = 0`` is
  the only legal delay) — in the concrete, symbolic, and game semantics;
* unlike committed locations they grant **no** move priority;
* the tioco/rtioco monitors settle urgent states as follows: internal
  moves without an observable competitor resolve silently; an urgent
  state offering an observable output at the frozen instant is *settled*
  (quiescence bound 0) and resolves through ``observe`` — an urgent
  location with only sync edges no longer strands the monitor.
"""

from fractions import Fraction

import pytest

from repro.semantics.system import OPEN, System
from repro.ta.builder import NetworkBuilder
from repro.ta.validate import check_input_enabledness, check_urgent_escapes
from repro.tctl import parse_query
from repro.game import OnTheFlySolver, TwoPhaseSolver
from repro.testing import (
    RelativizedMonitor,
    SimulatedImplementation,
    TiocoMonitor,
)


def sync_only_plant(*, urgent=True, internal_escape=False):
    """``Idle --kick?--> U --beep!--> Done`` with U optionally urgent.

    ``internal_escape`` replaces the beep edge by an internal one (the
    committed-style processing shape).
    """
    net = NetworkBuilder("plant")
    net.clock("x")
    net.input_channel("kick")
    net.output_channel("beep")
    p = net.automaton("P")
    p.location("Idle", initial=True)
    p.location("U", urgent=urgent)
    p.location("Done")
    p.edge("Idle", "U", sync="kick?", assign="x := 0")
    p.edge("U", "Done", sync=None if internal_escape else "beep!")
    for loc in ("U", "Done"):
        p.edge(loc, loc, sync="kick?")
    return net.build()


def composed():
    net = NetworkBuilder("arena")
    net.clock("x")
    net.input_channel("kick")
    net.output_channel("beep")
    p = net.automaton("P")
    p.location("Idle", initial=True)
    p.location("U", urgent=True)
    p.location("Done")
    p.edge("Idle", "U", sync="kick?", assign="x := 0")
    p.edge("U", "Done", sync="beep!")
    for loc in ("U", "Done"):
        p.edge(loc, loc, sync="kick?")
    env = net.automaton("ENV")
    env.location("e", initial=True)
    env.edge("e", "e", sync="kick!")
    env.edge("e", "e", sync="beep?")
    return net.build()


# ----------------------------------------------------------------------
# Core semantics: delay freeze without priority
# ----------------------------------------------------------------------


def test_urgent_blocks_delay_in_all_semantics():
    system = System(sync_only_plant())
    state = system.initial_concrete()
    (kick,) = [
        m
        for m, _ in system.enabled_now(state, mode=OPEN, directions=("input",))
        if m.label == "kick" and m.edges[0][1].target == "U"
    ]
    state = system.fire(state, kick)
    assert not system.can_delay(state.locs)
    assert system.has_urgent(state.locs)
    assert not system.has_committed(state.locs)
    assert system.max_delay(state) == (Fraction(0), False)
    assert system.delay_ok(state, Fraction(0))
    assert not system.delay_ok(state, Fraction(1, 2))
    # Symbolically: delay closure is the identity on urgent states.
    sym = system.initial_symbolic()
    post = system.post(sym, kick)
    closed = system.delay_closure(post)
    assert closed.zone.to_string() == post.zone.to_string()


def test_urgent_grants_no_move_priority():
    def arena(flag):
        net = NetworkBuilder("prio")
        net.output_channel("o1", "o2")
        a = net.automaton("A")
        a.location("a0", initial=True, **flag)
        a.location("a1")
        a.edge("a0", "a1", sync="o1!")
        b = net.automaton("B")
        b.location("b0", initial=True)
        b.location("b1")
        b.edge("b0", "b1", sync="o2!")
        env = net.automaton("ENV")
        env.location("e", initial=True)
        env.edge("e", "e", sync="o1?")
        env.edge("e", "e", sync="o2?")
        return System(net.build())

    urgent_sys = arena({"urgent": True})
    state = urgent_sys.initial_concrete()
    labels = sorted(
        m.label for m in urgent_sys.moves_from(state.locs, state.vars)
    )
    assert labels == ["o1", "o2"]  # urgent: every enabled move stays enabled

    committed_sys = arena({"committed": True})
    state = committed_sys.initial_concrete()
    labels = sorted(
        m.label for m in committed_sys.moves_from(state.locs, state.vars)
    )
    assert labels == ["o1"]  # committed: only the committed automaton moves


# ----------------------------------------------------------------------
# Monitors: the ROADMAP stranding case
# ----------------------------------------------------------------------


def test_tioco_monitor_not_stranded_by_sync_only_urgent_location():
    monitor = TiocoMonitor(System(sync_only_plant()))
    assert monitor.observe("kick", "input")
    # Settled *at* the urgent location, with the output still observable.
    assert monitor.spec.has_urgent(monitor.state.locs)
    quiescence = monitor.max_quiescence()
    assert quiescence.bound == 0 and not quiescence.strict
    assert monitor.allowed_outputs() == ["beep"]
    assert monitor.advance(Fraction(0))
    assert monitor.observe("beep", "output")
    assert monitor.ok


def test_tioco_monitor_rejects_quiescence_in_urgent_state():
    monitor = TiocoMonitor(System(sync_only_plant()))
    assert monitor.observe("kick", "input")
    assert not monitor.advance(Fraction(1))
    assert "forces an action" in monitor.violation


def test_tioco_monitor_settles_internal_urgent_processing():
    monitor = TiocoMonitor(System(sync_only_plant(internal_escape=True)))
    assert monitor.observe("kick", "input")
    # The internal move has no observable competitor: settled through it.
    assert not monitor.spec.has_urgent(monitor.state.locs)
    assert monitor.max_quiescence().bound is None
    assert monitor.ok


def test_rtioco_monitor_not_stranded_by_urgent_location():
    system = System(composed())
    monitor = RelativizedMonitor(system)
    (kick,) = [
        m
        for m, _ in system.enabled_now(monitor.state, directions=("input",))
        if m.edges[0][1].target == "U" or m.edges[1][1].target == "U"
    ]
    assert monitor.observe_move(kick)
    assert system.has_urgent(monitor.state.locs)
    assert monitor.max_quiescence().bound == 0
    assert monitor.allowed_outputs() == ["beep"]
    assert not monitor.advance(Fraction(2))  # quiescence impossible
    monitor.reset()
    assert monitor.observe_move(kick)
    assert monitor.observe_output("beep")
    assert monitor.ok


def test_simulated_implementation_fires_immediately_when_urgent():
    imp = SimulatedImplementation(System(sync_only_plant()))
    assert imp.give_input("kick")
    scheduled = imp.next_output()
    assert scheduled is not None
    assert scheduled.delay == 0
    assert imp.advance(Fraction(0)) == "beep"


# ----------------------------------------------------------------------
# Game solving: urgency forces the opponent
# ----------------------------------------------------------------------


@pytest.mark.parametrize("urgent,expected", [(True, True), (False, False)])
def test_urgent_location_forces_plant_output(urgent, expected):
    """Without an invariant the plant may stay quiescent forever in U, so
    the reachability game is lost; making U urgent freezes delay and
    forces the (only) uncontrollable move — the controller wins."""
    net = NetworkBuilder("force")
    net.input_channel("kick")
    net.output_channel("beep")
    p = net.automaton("P")
    p.location("Idle", initial=True)
    p.location("U", urgent=urgent)
    p.location("Goal")
    p.edge("Idle", "U", sync="kick?")
    p.edge("U", "Goal", sync="beep!")
    env = net.automaton("ENV")
    env.location("e", initial=True)
    env.edge("e", "e", sync="kick!")
    env.edge("e", "e", sync="beep?")
    query = parse_query("control: A<> P.Goal")
    two = TwoPhaseSolver(System(net.build()), query).solve()
    otf = OnTheFlySolver(System(net.build()), query).solve()
    assert two.winning == otf.winning == expected


# ----------------------------------------------------------------------
# Pre-flight validation
# ----------------------------------------------------------------------


@pytest.mark.parametrize("guard", ["x >= 3", "v == 1"])
def test_check_urgent_escapes_flags_timelock(guard):
    """Clock-guarded AND integer-guarded escapes both count as blockable:
    an urgent location whose only edge is conditionally enabled can
    freeze time forever (e.g. ``v == 1`` when v is 0)."""
    net = NetworkBuilder("timelock")
    net.clock("x")
    net.int_var("v", 0, 1, 0)
    net.output_channel("late")
    p = net.automaton("P")
    p.location("U", initial=True, urgent=True)
    p.location("Done")
    p.edge("U", "Done", sync="late!", guard=guard)
    report = check_urgent_escapes(System(net.build()))
    assert not report.ok
    assert report.issues[0].kind == "urgent-timelock"


def test_check_urgent_escapes_accepts_unguarded_edge():
    report = check_urgent_escapes(System(sync_only_plant()))
    assert report.ok


def test_input_refusal_at_urgent_location_is_detected():
    """Urgent states are observable waiting points under the settling
    rule, so the static input-enabledness check must cover them: a plant
    refusing an input at an urgent location is flagged (the monitors
    would punish it at runtime)."""
    net = NetworkBuilder("refusal")
    net.input_channel("kick")
    net.output_channel("beep")
    p = net.automaton("P")
    p.location("Idle", initial=True)
    p.location("U", urgent=True)
    p.location("Done")
    p.edge("Idle", "U", sync="kick?")
    p.edge("U", "Done", sync="beep!")  # no kick? edge at U
    p.edge("Done", "Done", sync="kick?")
    report = check_input_enabledness(System(net.build()))
    assert not report.ok
    assert any(issue.kind == "input-refusal" for issue in report.issues)
    # The input-enabled variant used everywhere else passes.
    assert check_input_enabledness(System(sync_only_plant())).ok
