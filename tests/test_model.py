"""Tests for the TA model layer and builders (repro.ta)."""

import pytest

from repro.ta import NetworkBuilder, ModelError
from repro.ta.model import INPUT, OUTPUT


def tiny_builder():
    net = NetworkBuilder("tiny")
    net.constant("K", 3)
    net.clock("x")
    net.input_channel("press")
    net.output_channel("beep")
    a = net.automaton("M")
    a.location("s0", initial=True)
    a.location("s1", invariant="x <= K")
    a.edge("s0", "s1", guard="x >= 1", sync="press?", assign="x := 0")
    a.edge("s1", "s0", sync="beep!")
    return net


class TestBuilder:
    def test_build_succeeds(self):
        net = tiny_builder().build()
        assert net.dim == 2
        assert net.initial_locations() == (0,)

    def test_channel_kinds(self):
        net = tiny_builder().build()
        assert net.channels["press"].kind == INPUT
        assert net.channels["press"].controllable
        assert net.channels["beep"].kind == OUTPUT
        assert not net.channels["beep"].controllable

    def test_edge_controllability_from_channel(self):
        net = tiny_builder().build()
        edges = net.automaton("M").edges
        assert edges[0].controllable  # press?
        assert not edges[1].controllable  # beep!

    def test_duplicate_location_rejected(self):
        net = NetworkBuilder("dup")
        a = net.automaton("A")
        a.location("s", initial=True)
        with pytest.raises(ModelError):
            a.location("s")

    def test_two_initials_rejected(self):
        net = NetworkBuilder("dup")
        a = net.automaton("A")
        a.location("s", initial=True)
        with pytest.raises(ModelError):
            a.location("t", initial=True)

    def test_unknown_location_in_edge(self):
        net = NetworkBuilder("bad")
        a = net.automaton("A")
        a.location("s", initial=True)
        with pytest.raises(ModelError):
            a.edge("s", "nowhere")

    def test_no_initial_rejected_at_build(self):
        net = NetworkBuilder("noinit")
        net.automaton("A").location("s")
        with pytest.raises(ModelError):
            net.build()

    def test_undeclared_channel_rejected(self):
        net = NetworkBuilder("chan")
        a = net.automaton("A")
        a.location("s", initial=True)
        a.edge("s", "s", sync="ghost!")
        with pytest.raises(ModelError):
            net.build()

    def test_bad_sync_string(self):
        net = NetworkBuilder("sync")
        a = net.automaton("A")
        a.location("s", initial=True)
        with pytest.raises(ModelError):
            a.edge("s", "s", sync="nodirection")

    def test_duplicate_automaton_rejected(self):
        net = NetworkBuilder("two")
        net.automaton("A").location("s", initial=True)
        net.automaton("A").location("s", initial=True)
        with pytest.raises(ModelError):
            net.build()


class TestInvariantShapes:
    def test_lower_bound_invariant_rejected(self):
        net = NetworkBuilder("inv")
        net.clock("x")
        a = net.automaton("A")
        a.location("s", invariant="x >= 3", initial=True)
        with pytest.raises(ModelError):
            net.build()

    def test_diagonal_invariant_rejected(self):
        net = NetworkBuilder("inv")
        net.clock("x", "y")
        a = net.automaton("A")
        a.location("s", invariant="x - y <= 3", initial=True)
        with pytest.raises(ModelError):
            net.build()

    def test_upper_bound_invariant_ok(self):
        net = NetworkBuilder("inv")
        net.clock("x")
        a = net.automaton("A")
        a.location("s", invariant="x <= 3 && x < 7", initial=True)
        assert net.build() is not None


class TestClockAssignments:
    def test_reset_to_zero(self):
        net = tiny_builder().build()
        edge = net.automaton("M").edges[0]
        assert edge.clock_resets == ((1, 0),)

    def test_reset_to_constant(self):
        net = NetworkBuilder("rc")
        net.clock("x")
        a = net.automaton("A")
        a.location("s", initial=True)
        a.edge("s", "s", assign="x := 5")
        built = net.build()
        assert built.automaton("A").edges[0].clock_resets == ((1, 5),)

    def test_reset_to_expression_rejected(self):
        net = NetworkBuilder("rx")
        net.clock("x")
        net.int_var("n")
        a = net.automaton("A")
        a.location("s", initial=True)
        a.edge("s", "s", assign="x := n")
        with pytest.raises(ModelError):
            net.build()

    def test_negative_reset_rejected(self):
        net = NetworkBuilder("rn")
        net.clock("x")
        a = net.automaton("A")
        a.location("s", initial=True)
        a.edge("s", "s", assign="x := -1")
        with pytest.raises(ModelError):
            net.build()

    def test_int_assigns_separated(self):
        net = NetworkBuilder("mix")
        net.clock("x")
        net.int_var("n", 0, 9)
        a = net.automaton("A")
        a.location("s", initial=True)
        a.edge("s", "s", assign="x := 0, n := n + 1")
        built = net.build()
        edge = built.automaton("A").edges[0]
        assert edge.clock_resets == ((1, 0),)
        assert len(edge.int_assigns) == 1


class TestMaxConstants:
    def test_covers_guards_and_invariants(self):
        net = tiny_builder().build()
        consts = net.max_constants()
        assert consts[1] >= 3  # invariant x <= K with K = 3

    def test_diagonal_detection(self):
        net = NetworkBuilder("diag")
        net.clock("x", "y")
        a = net.automaton("A")
        a.location("s", initial=True)
        a.edge("s", "s", guard="x - y <= 1")
        built = net.build()
        assert built.has_diagonal_constraints()

    def test_no_diagonals_in_tiny(self):
        assert not tiny_builder().build().has_diagonal_constraints()

    def test_location_names(self):
        net = tiny_builder().build()
        assert net.location_names((1,)) == ["M.s1"]

    def test_channel_names_filter(self):
        net = tiny_builder().build()
        assert net.channel_names("input") == ["press"]
        assert net.channel_names("output") == ["beep"]
