"""Broadcast-channel semantics: model layer, moves, monitors, solver.

UPPAAL-style broadcast: one emitter, every automaton with an enabled
receiving edge participates, emission never blocks on missing receivers,
and receiving edges may not carry clock guards (the participating set
must be a function of the discrete state).
"""

from fractions import Fraction

import pytest

from repro.semantics.system import OPEN, System
from repro.ta.builder import NetworkBuilder
from repro.ta.dot import network_to_dot
from repro.ta.model import BROADCAST, ModelError
from repro.tctl import parse_query
from repro.game import OnTheFlySolver, TwoPhaseSolver
from repro.testing import RelativizedMonitor, RtiocoMonitor, TiocoMonitor


def publisher_net(*, subscribers=2, env=True, int_guard=None):
    """Publisher P casting once on ``b`` to ``subscribers`` listeners."""
    net = NetworkBuilder("bc")
    net.clock("x")
    net.int_var("got", 0, subscribers + 1, 0)
    net.int_var("arm", 0, 1, 1)
    net.broadcast_channel("b")
    net.input_channel("go")
    p = net.automaton("P")
    p.location("Idle", initial=True)
    p.location("Prep", "x <= 3")
    p.location("Sent")
    # Without an environment there is no go!-emitter: start internally.
    p.edge("Idle", "Prep", sync="go?" if env else None, assign="x := 0")
    p.edge("Prep", "Sent", sync="b!", guard="x >= 1")
    if env:
        for loc in ("Prep", "Sent"):
            p.edge(loc, loc, sync="go?")
    for j in range(subscribers):
        s = net.automaton(f"S{j}")
        s.location("Wait", initial=True)
        s.location("Got")
        s.edge("Wait", "Got", sync="b?", guard=int_guard, assign="got := got + 1")
    if env:
        e = net.automaton("ENV")
        e.location("e", initial=True)
        e.edge("e", "e", sync="go!")
        e.edge("e", "e", sync="b?")
    return net.build()


# ----------------------------------------------------------------------
# Model layer
# ----------------------------------------------------------------------


def test_broadcast_channel_kind():
    net = publisher_net()
    channel = net.channels["b"]
    assert channel.kind == BROADCAST
    assert channel.broadcast
    assert not channel.controllable
    assert not net.channels["go"].broadcast
    assert "chan b : broadcast" in net.structural_text()


def test_broadcast_receiver_clock_guard_rejected():
    net = NetworkBuilder("bad")
    net.clock("x")
    net.broadcast_channel("b")
    a = net.automaton("A")
    a.location("l", initial=True)
    a.location("m")
    a.edge("l", "m", sync="b?", guard="x >= 1")
    with pytest.raises(ModelError, match="clock guard"):
        net.build()


def test_broadcast_emitter_clock_guard_allowed():
    publisher_net()  # emitter carries `x >= 1`; must prepare fine


def test_broadcast_dot_marks_fanout_edges():
    dot = network_to_dot(publisher_net())
    assert "penwidth=2" in dot


# ----------------------------------------------------------------------
# Closed (network) semantics
# ----------------------------------------------------------------------


def fire_go_then_cast(system):
    state = system.initial_concrete()
    (go,) = [m for m in system.moves_from(state.locs, state.vars) if m.label == "go"]
    state = system.fire(state, go)
    casts = [m for m in system.moves_from(state.locs, state.vars) if m.label == "b"]
    return state, casts


def test_broadcast_move_gathers_all_enabled_receivers():
    system = System(publisher_net(subscribers=2))
    state, casts = fire_go_then_cast(system)
    assert len(casts) == 1
    (cast,) = casts
    assert cast.direction == "output"
    assert not cast.controllable
    # Emitter first, then both subscribers and the listening ENV.
    participants = [system.automata[i].name for i, _ in cast.edges]
    assert participants == ["P", "S0", "S1", "ENV"]
    after = system.fire(state.delayed(Fraction(1)), cast)
    assert after is not None
    got_slot = system.decls.int_vars["got"].slot
    assert after.vars[got_slot] == 2  # both subscribers counted the cast


def test_broadcast_does_not_block_without_receivers():
    # arm == 0 disables every subscriber; the cast must still fire.
    system = System(publisher_net(subscribers=2, env=False, int_guard="arm == 1"))
    state = system.initial_concrete()
    arm_slot = system.decls.int_vars["arm"].slot
    disarmed = tuple(
        0 if i == arm_slot else v for i, v in enumerate(state.vars)
    )
    state = state.__class__(state.locs, disarmed, state.clocks)
    (start,) = [m for m in system.moves_from(state.locs, state.vars) if m.label == "tau"]
    state = system.fire(state, start)
    casts = [m for m in system.moves_from(state.locs, state.vars) if m.label == "b"]
    assert len(casts) == 1
    assert len(casts[0].edges) == 1  # emitter alone
    after = system.fire(state.delayed(Fraction(1)), casts[0])
    assert after is not None
    got_slot = system.decls.int_vars["got"].slot
    assert after.vars[got_slot] == 0


def test_broadcast_enumerates_receiver_choices_per_automaton():
    net = NetworkBuilder("choices")
    net.broadcast_channel("b")
    a = net.automaton("A")
    a.location("l", initial=True)
    a.location("m")
    a.edge("l", "m", sync="b!")
    r = net.automaton("R")
    r.location("l", initial=True)
    r.location("p")
    r.location("q")
    r.edge("l", "p", sync="b?")
    r.edge("l", "q", sync="b?")
    system = System(net.build())
    state = system.initial_concrete()
    moves = system.moves_from(state.locs, state.vars)
    # Two enabled receiving edges in one automaton: one combination each.
    assert sorted(len(m.edges) for m in moves) == [2, 2]
    targets = {system.target_locs(state.locs, m) for m in moves}
    assert len(targets) == 2


def test_broadcast_committed_rule():
    net = NetworkBuilder("committed")
    net.broadcast_channel("b")
    net.output_channel("o")
    a = net.automaton("A")
    a.location("l", initial=True)
    a.location("m")
    a.edge("l", "m", sync="b!")
    c = net.automaton("C")
    c.location("c0", initial=True, committed=True)
    c.location("c1")
    c.edge("c0", "c1")
    system = System(net.build())
    state = system.initial_concrete()
    labels = [m.label for m in system.moves_from(state.locs, state.vars)]
    # C is committed and does not participate in b: the cast must wait.
    assert labels == ["tau"]
    state = system.fire(state, system.moves_from(state.locs, state.vars)[0])
    labels = [m.label for m in system.moves_from(state.locs, state.vars)]
    assert labels == ["b"]


def test_broadcast_committed_receiver_participates():
    net = NetworkBuilder("committed-recv")
    net.broadcast_channel("b")
    a = net.automaton("A")
    a.location("l", initial=True)
    a.location("m")
    a.edge("l", "m", sync="b!")
    c = net.automaton("C")
    c.location("c0", initial=True, committed=True)
    c.location("c1")
    c.edge("c0", "c1", sync="b?")
    system = System(net.build())
    state = system.initial_concrete()
    moves = system.moves_from(state.locs, state.vars)
    # The committed automaton receives the cast, so the move is enabled.
    assert [m.label for m in moves] == ["b"]
    assert len(moves[0].edges) == 2


# ----------------------------------------------------------------------
# Open (component) semantics + monitors
# ----------------------------------------------------------------------


def test_broadcast_open_directions():
    net = NetworkBuilder("open")
    net.broadcast_channel("b")
    a = net.automaton("A")
    a.location("l", initial=True)
    a.location("m")
    a.edge("l", "m", sync="b!")
    a.edge("l", "l", sync="b?")
    system = System(net.build())
    state = system.initial_concrete()
    by_direction = {
        m.direction: m for m in system.moves_from(state.locs, state.vars, OPEN)
    }
    assert by_direction["output"].label == "b"
    assert not by_direction["output"].controllable
    assert by_direction["input"].label == "b"
    assert by_direction["input"].controllable


def test_tioco_monitor_accepts_broadcast_output():
    plant = NetworkBuilder("plant")
    plant.clock("x")
    plant.broadcast_channel("b")
    plant.input_channel("go")
    p = plant.automaton("P")
    p.location("Idle", initial=True)
    p.location("Prep", "x <= 2")
    p.location("Sent")
    p.edge("Idle", "Prep", sync="go?", assign="x := 0")
    p.edge("Prep", "Sent", sync="b!")
    for loc in ("Prep", "Sent"):
        p.edge(loc, loc, sync="go?")
    monitor = TiocoMonitor(System(plant.build()))
    assert monitor.observe("go", "input")
    assert monitor.allowed_outputs() == ["b"]
    assert monitor.advance(Fraction(1))
    assert monitor.observe("b", "output")
    assert monitor.ok


def test_rtioco_monitor_accepts_broadcast_output():
    assert RtiocoMonitor is RelativizedMonitor
    composed = publisher_net(subscribers=1)
    monitor = RelativizedMonitor(System(composed))
    go = [
        m
        for m, _ in System(composed).enabled_now(
            monitor.state, directions=("input",)
        )
        if m.label == "go"
    ]
    assert monitor.observe_move(go[0])
    assert monitor.advance(Fraction(1))
    assert monitor.allowed_outputs() == ["b"]
    assert monitor.observe_output("b")
    assert monitor.ok


# ----------------------------------------------------------------------
# Game solving over broadcast arenas
# ----------------------------------------------------------------------


def test_determinism_check_flags_same_automaton_receiver_choice():
    """Parallel receivers in different automata are fan-out (exempt from
    the determinism hypothesis), but two enabled receiving edges in the
    *same* automaton are a genuine nondeterministic choice and must be
    flagged by the open-system check."""
    from repro.ta.validate import check_determinism

    def plant(split_receivers):
        net = NetworkBuilder("det")
        net.broadcast_channel("cast")
        net.output_channel("o")
        a = net.automaton("A")
        a.location("l", initial=True)
        a.location("m")
        a.edge("l", "m", sync="o!")
        if split_receivers:
            for j, target in enumerate(("p", "q")):
                r = net.automaton(f"R{j}")
                r.location("w", initial=True)
                r.location(target)
                r.edge("w", target, sync="cast?")
        else:
            r = net.automaton("R")
            r.location("w", initial=True)
            r.location("p")
            r.location("q")
            r.edge("w", "p", sync="cast?")
            r.edge("w", "q", sync="cast?")
        return System(net.build())

    assert check_determinism(plant(split_receivers=True)).ok
    report = check_determinism(plant(split_receivers=False))
    assert not report.ok
    assert report.issues[0].kind == "nondeterminism"


def test_broadcast_game_solvers_agree_and_win():
    net = publisher_net(subscribers=2)
    query = parse_query("control: A<> got == 2")
    two = TwoPhaseSolver(System(net), query).solve()
    otf = OnTheFlySolver(System(net), query).solve()
    # The invariant on Prep forces the cast, which reaches all listeners.
    assert two.winning
    assert otf.winning
