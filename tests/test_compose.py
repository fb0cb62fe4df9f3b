"""Tests of the partial-composition subsystem.

Covers the interface partition (model layer), partial-move enumeration
(binary / broadcast / committed / urgent interplay), the symbolic state
estimate, and the property that partial composition with an empty
boundary coincides with the flat closed product.
"""

from fractions import Fraction

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.gen import generate_instance
from repro.gen.differential import OK, DiffConfig, check_composition
from repro.graph.explorer import SimulationGraph
from repro.semantics import StateEstimate, System
from repro.semantics import compose
from repro.semantics.compose import EstimateLimit
from repro.semantics.system import CLOSED, OPEN, PARTIAL
from repro.ta.builder import NetworkBuilder
from repro.ta.model import ModelError
from repro.util import counters


def chain2_network(*, declare_interface: bool = True):
    """Two stages passing a hidden token: go? -> (h, hidden) -> fin!.

    Stage A forwards within 2 time units of ``go``; stage B emits ``fin``
    between 1 and 3 time units after receiving the token.
    """
    net = NetworkBuilder("chain2")
    net.clock("c0", "c1")
    net.input_channel("go")
    net.output_channel("h", "fin")
    if declare_interface:
        net.interface("go", "fin")
    a = net.automaton("A")
    a.location("Idle", initial=True)
    a.location("Busy", "c0 <= 2")
    a.location("Done")
    a.edge("Idle", "Busy", sync="go?", assign="c0 := 0")
    a.edge("Busy", "Done", sync="h!")
    a.edge("Busy", "Busy", sync="go?")
    a.edge("Done", "Done", sync="go?")
    b = net.automaton("B")
    b.location("Wait", initial=True)
    b.location("Hold", "c1 <= 3")
    b.location("End")
    b.edge("Wait", "Hold", sync="h?", assign="c1 := 0")
    b.edge("Hold", "End", sync="fin!", guard="c1 >= 1")
    return net.build()


def broadcast_network(*, internalise: bool = False):
    """A publisher casting to two subscribers over a broadcast channel."""
    net = NetworkBuilder("bcast")
    net.clock("x")
    net.input_channel("go")
    net.broadcast_channel("cast")
    if internalise:
        net.interface("go")
    else:
        net.interface("go", "cast")
    p = net.automaton("P")
    p.location("Idle", initial=True)
    p.location("Sent")
    p.edge("Idle", "Sent", sync="cast!")
    p.edge("Idle", "Idle", sync="go?")
    p.edge("Sent", "Sent", sync="go?")
    for name in ("S0", "S1"):
        s = net.automaton(name)
        s.location("Wait", initial=True)
        s.location("Got")
        s.edge("Wait", "Got", sync="cast?")
    return net.build()


# ----------------------------------------------------------------------
# Interface partition (model layer)
# ----------------------------------------------------------------------


class TestPartition:
    def test_default_boundary_one_sided_and_broadcast(self):
        net = NetworkBuilder("defaults")
        net.clock("x")
        net.input_channel("go")          # one side: P receives
        net.output_channel("h", "fin")   # h pairable, fin one-sided
        net.broadcast_channel("cast")    # always boundary by default
        p = net.automaton("P")
        p.location("l0", initial=True)
        p.location("l1")
        p.edge("l0", "l1", sync="go?")
        p.edge("l0", "l1", sync="h!")
        p.edge("l0", "l1", sync="cast!")
        q = net.automaton("Q")
        q.location("m0", initial=True)
        q.location("m1")
        q.edge("m0", "m1", sync="h?")
        q.edge("m0", "m1", sync="fin!")
        network = net.build()
        assert not network.interface_declared
        assert network.boundary == frozenset({"go", "fin", "cast"})
        assert network.internalised_channels() == frozenset({"h"})

    def test_same_automaton_halves_are_not_pairable(self):
        net = NetworkBuilder("selfsync")
        net.output_channel("c")
        p = net.automaton("P")
        p.location("l0", initial=True)
        p.edge("l0", "l0", sync="c!")
        p.edge("l0", "l0", sync="c?")
        network = net.build()
        # Binary sync needs two distinct automata: c stays at the boundary.
        assert not network.channel_pairable("c")
        assert "c" in network.boundary

    def test_explicit_interface_overrides_default(self):
        network = chain2_network()
        assert network.interface_declared
        assert network.boundary == frozenset({"go", "fin"})
        assert network.internalised_channels() == frozenset({"h"})

    def test_empty_interface_internalises_everything(self):
        net = NetworkBuilder("closedplant")
        net.output_channel("h")
        net.interface()
        p = net.automaton("P")
        p.location("l0", initial=True)
        p.edge("l0", "l0", sync="h!")
        q = net.automaton("Q")
        q.location("m0", initial=True)
        q.edge("m0", "m0", sync="h?")
        network = net.build()
        assert network.interface_declared
        assert network.boundary == frozenset()
        assert network.internalised_channels() == frozenset({"h"})

    def test_unknown_interface_channel_rejected(self):
        net = NetworkBuilder("bad")
        net.output_channel("h")
        net.interface("nope")
        p = net.automaton("P")
        p.location("l0", initial=True)
        with pytest.raises(ModelError, match="undeclared channel"):
            net.build()

    def test_interface_after_prepare_rejected(self):
        network = chain2_network()
        with pytest.raises(ModelError, match="before prepare"):
            network.set_interface(("go",))

    def test_interface_is_part_of_the_structural_hash(self):
        declared = chain2_network(declare_interface=True)
        default = chain2_network(declare_interface=False)
        assert "interface [fin, go]" in declared.structural_text()
        assert declared.structural_hash() != default.structural_hash()


# ----------------------------------------------------------------------
# Partial-move enumeration
# ----------------------------------------------------------------------


def moves_by_label(system, locs, vars, mode):
    table = {}
    for move in system.moves_from(locs, vars, mode):
        table.setdefault(move.label, []).append(move)
    return table


class TestPartialEnumeration:
    def test_internalised_pair_becomes_hidden_move(self):
        system = System(chain2_network())
        locs = (1, 0)  # A.Busy, B.Wait
        vars = ()
        table = moves_by_label(system, locs, vars, PARTIAL)
        (h,) = table["h"]
        assert h.direction == "internal" and not h.observable
        # Both halves participate: emitter first.
        assert [edge.automaton for _, edge in h.edges] == ["A", "B"]

    def test_boundary_halves_fire_alone(self):
        system = System(chain2_network())
        init = system.network.initial_locations()
        table = moves_by_label(system, init, (), PARTIAL)
        (go,) = table["go"]
        assert go.direction == "input" and go.controllable
        assert len(go.edges) == 1
        fin_table = moves_by_label(system, (2, 1), (), PARTIAL)  # Done, Hold
        (fin,) = fin_table["fin"]
        assert fin.direction == "output" and len(fin.edges) == 1

    def test_pairable_boundary_channel_keeps_kind_direction(self):
        # An arena-style network: the partner is in-model, the channel
        # observable — the pair completes with its kind direction.
        net = NetworkBuilder("arena")
        net.input_channel("go")
        net.interface("go")
        env = net.automaton("ENV")
        env.location("e", initial=True)
        env.edge("e", "e", sync="go!")
        p = net.automaton("P")
        p.location("l0", initial=True)
        p.edge("l0", "l0", sync="go?")
        system = System(net.build())
        (go,) = system.moves_from((0, 0), (), PARTIAL)
        assert go.direction == "input" and len(go.edges) == 2

    def test_open_equals_partial_on_single_automaton(self):
        instance = generate_instance(7, "random")
        system = System(instance.plant)
        graph = SimulationGraph(system, mode=OPEN, max_nodes=400)
        graph.explore_all()

        def key(move):
            return (
                move.label,
                move.direction,
                move.controllable,
                tuple(e.index for _, e in move.edges),
            )

        for node in graph.nodes:
            locs, vars = node.sym.locs, node.sym.vars
            open_moves = sorted(map(key, system.moves_from(locs, vars, OPEN)))
            partial = sorted(map(key, system.moves_from(locs, vars, PARTIAL)))
            assert open_moves == partial

    def test_broadcast_boundary_output_carries_receivers(self):
        system = System(broadcast_network())
        table = moves_by_label(system, (0, 0, 0), (), PARTIAL)
        casts = table["cast"]
        outputs = [m for m in casts if m.direction == "output"]
        inputs = [m for m in casts if m.direction == "input"]
        (out,) = outputs
        # Emitter plus both listening subscribers in one observable move.
        assert [edge.automaton for _, edge in out.edges] == ["P", "S0", "S1"]
        # The environment may cast too: both subscribers take it together.
        (inp,) = inputs
        assert inp.controllable
        assert [edge.automaton for _, edge in inp.edges] == ["S0", "S1"]

    def test_broadcast_internalised_is_hidden_without_input_half(self):
        system = System(broadcast_network(internalise=True))
        table = moves_by_label(system, (0, 0, 0), (), PARTIAL)
        (cast,) = table["cast"]
        assert cast.direction == "internal"
        assert [edge.automaton for _, edge in cast.edges] == ["P", "S0", "S1"]

    def test_committed_priority_applies_to_partial_moves(self):
        net = NetworkBuilder("committed")
        net.output_channel("h", "out")
        net.interface("out")
        a = net.automaton("A")
        a.location("a0", initial=True)
        a.location("a1")
        a.edge("a0", "a1", sync="h!")
        a.edge("a0", "a1", sync="out!")
        b = net.automaton("B")
        b.location("b0", initial=True, committed=True)
        b.location("b1")
        b.edge("b0", "b1", sync="h?")
        b.edge("b0", "b1")
        system = System(net.build())
        labels = {m.label for m in system.moves_from((0, 0), (), PARTIAL)}
        # B is committed: the hidden pair (involves B) and B's tau run,
        # A's solo boundary output must wait.
        assert labels == {"h", "tau"}

    def test_urgent_freezes_delay_but_not_moves(self):
        net = NetworkBuilder("urgent")
        net.output_channel("h", "out")
        net.interface("out")
        a = net.automaton("A")
        a.location("a0", initial=True)
        a.location("a1")
        a.edge("a0", "a1", sync="h!")
        a.edge("a0", "a1", sync="out!")
        b = net.automaton("B")
        b.location("b0", initial=True, urgent=True)
        b.location("b1")
        b.edge("b0", "b1", sync="h?")
        system = System(net.build())
        assert not system.can_delay((0, 0))
        labels = {m.label for m in system.moves_from((0, 0), (), PARTIAL)}
        # No priority: the boundary output races the hidden sync.
        assert labels == {"h", "out"}

    def test_unknown_mode_rejected(self):
        system = System(chain2_network())
        with pytest.raises(ValueError, match="unknown move mode"):
            system.moves_from((0, 0), (), "weird")

    def test_saturating_update_disables_the_move(self):
        """enabled_now must agree with fire on variable-range feasibility.

        A broadcast reception bumping a bounded counter stops being
        enabled once the counter saturates (found by the fuzzer on
        retarget mutants whose subscribers re-receive forever).
        """
        net = NetworkBuilder("saturate")
        net.int_var("got", 0, 1, 0)
        net.broadcast_channel("cast")
        net.interface("cast")
        p = net.automaton("P")
        p.location("Idle", initial=True)
        s = net.automaton("S")
        s.location("Wait", initial=True)
        s.edge("Wait", "Wait", sync="cast?", assign="got := got + 1")
        system = System(net.build())
        state = system.initial_concrete()
        enabled = system.enabled_now(state, mode=PARTIAL, directions=("input",))
        assert [m.label for m, _ in enabled] == ["cast"]
        state = system.fire(state, enabled[0][0])
        assert state.vars == (1,)
        # got is saturated: the reception is no longer a transition.
        assert system.enabled_now(state, mode=PARTIAL, directions=("input",)) == []
        assert system.fire(state, enabled[0][0]) is None


# ----------------------------------------------------------------------
# State estimation
# ----------------------------------------------------------------------


class TestStateEstimate:
    @pytest.fixture()
    def estimate(self):
        return StateEstimate(System(chain2_network()))

    def test_initial_quiescence_unbounded(self, estimate):
        assert estimate.max_quiescence() == (None, False)

    def test_hidden_window_extends_quiescence(self, estimate):
        assert estimate.observe("go", "input")
        # h fires by c0 <= 2, fin forced by c1 <= 3 after: silence <= 5.
        assert estimate.max_quiescence() == (Fraction(5), False)

    def test_quiescence_violation_detected(self, estimate):
        estimate.observe("go", "input")
        assert not estimate.advance(Fraction(6))

    def test_exact_delay_tracking_through_hidden_moves(self, estimate):
        estimate.observe("go", "input")
        assert estimate.advance(Fraction(3, 2))
        # fin needs c1 >= 1, reachable: h at t <= 1/2 gives c1 >= 1 now.
        assert estimate.allowed_outputs() == ["fin"]
        assert estimate.observe("fin", "output")
        assert not estimate.observe("fin", "output")

    def test_output_refused_before_hidden_move_can_enable_it(self, estimate):
        estimate.observe("go", "input")
        assert estimate.advance(Fraction(1, 2))
        # Even the earliest hidden h leaves c1 <= 1/2 < 1.
        assert estimate.allowed_outputs() == []
        assert not estimate.observe("fin", "output")

    def test_quiescence_after_partial_delay(self, estimate):
        estimate.observe("go", "input")
        assert estimate.advance(Fraction(5, 3))
        bound, strict = estimate.max_quiescence()
        assert (bound, strict) == (Fraction(10, 3), False)

    def test_rescaling_keeps_exact_rational_delays(self, estimate):
        estimate.observe("go", "input")
        assert estimate.advance(Fraction(1, 3))
        assert estimate.advance(Fraction(1, 7))
        assert estimate.scale % 21 == 0
        bound, _ = estimate.max_quiescence()
        assert bound == Fraction(5) - Fraction(1, 3) - Fraction(1, 7)

    def test_reset_restores_the_initial_estimate(self, estimate):
        estimate.observe("go", "input")
        estimate.advance(Fraction(1))
        estimate.reset()
        assert estimate.scale == 1
        assert estimate.max_quiescence() == (None, False)
        assert estimate.enabled_labels("input") == ["go"]

    def test_budget_overflow_raises(self):
        estimate = StateEstimate(System(chain2_network()), max_states=1)
        with pytest.raises(EstimateLimit):
            estimate.observe("go", "input")
            estimate.max_quiescence()

    def test_scale_cap_raises_estimate_limit(self, estimate):
        """Wildly varied delay denominators must fail loudly, not corrupt
        the integer DBMs (the lcm scale is capped by the model constants)."""
        estimate.observe("go", "input")
        primes = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)
        with pytest.raises(EstimateLimit, match="time scale"):
            for p in primes:
                assert estimate.advance(Fraction(1, p))

    def test_observe_move_applies_the_specific_move(self, estimate):
        system = estimate.system
        locs = system.network.initial_locations()
        (go,) = [
            m for m in system.moves_from(locs, (), PARTIAL) if m.label == "go"
        ]
        (fin,) = [
            m
            for m in system.moves_from((2, 1), (), PARTIAL)
            if m.label == "fin"
        ]
        assert not estimate.observe_move(fin)  # not enabled initially
        assert estimate.observe_move(go)
        assert estimate.max_quiescence() == (Fraction(5), False)

    def test_describe_mentions_member_locations(self, estimate):
        estimate.observe("go", "input")
        text = estimate.describe()
        assert "A.Busy" in text and "B.Hold" in text

    def test_shared_step_table_is_bounded(self, monkeypatch):
        """Estimates over one network share one step table, keyed by time
        scale among others; delays with ever new denominators evict from
        it instead of growing it."""
        monkeypatch.setattr(compose, "STEP_TABLE_BOUND", 16)
        system = System(chain2_network())
        assert System(system.network).estimate_steps is system.estimate_steps
        evicted = counters.snapshot().get("estimate.steps_evicted", 0)
        for p in (3, 5, 7, 11, 13, 17, 19, 23):
            estimate = StateEstimate(system)
            assert estimate.observe("go", "input")
            assert estimate.advance(Fraction(1, p))
            assert estimate.max_quiescence()[0] is not None
            estimate.allowed_outputs()
            assert estimate.scale == p
            assert len(system.estimate_steps) <= 16
        assert counters.snapshot().get("estimate.steps_evicted", 0) > evicted


# ----------------------------------------------------------------------
# Property: empty boundary ≡ closed product
# ----------------------------------------------------------------------


@settings(
    max_examples=40,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
@given(
    seed=st.integers(0, 50_000),
    family=st.sampled_from(
        ["random", "chain", "ring", "clientserver", "broadcast", "mutant"]
    ),
)
def test_empty_boundary_partial_equals_closed_product(seed, family):
    instance = generate_instance(seed, family)
    result = check_composition(
        instance, DiffConfig(composition_nodes=400)
    )
    assert result.status == OK, result.detail


def test_executor_never_fails_a_conforming_composed_plant():
    """Strategy-based execution against hidden-sync plants is fail-sound.

    The tester's exact arena tracking may go stale (hidden hops fire at
    times it cannot observe); that must surface as INCONCLUSIVE — FAIL
    is reserved for violations of the (sound, set-tracking) monitor.
    """
    from repro.game.solver import TwoPhaseSolver
    from repro.game.strategy import Strategy
    from repro.tctl import parse_query
    from repro.testing import EagerPolicy, SimulatedImplementation
    from repro.testing.executor import execute_test

    for seed in range(6):
        instance = generate_instance(seed, "chain")
        arena = System(instance.arena)
        result = TwoPhaseSolver(arena, parse_query(instance.query)).solve()
        if not result.winning:
            continue
        run = execute_test(
            Strategy(result),
            System(instance.plant),
            SimulatedImplementation(System(instance.plant), EagerPolicy()),
        )
        assert run.verdict != "fail", (seed, run.reason)


def test_closed_mode_ignores_the_partition():
    """The game arena stays the flat product whatever the partition says."""
    network = chain2_network()
    system = System(network)
    closed = moves_by_label(system, (1, 0), (), CLOSED)
    assert closed["h"][0].direction == "output"  # kind direction, not hidden
