"""Tests for the Smart Light case study (paper Fig. 2/3 and Fig. 5)."""

from fractions import Fraction

import pytest

from repro.game import Strategy, Verdictish, solve_reachability_game
from repro.graph import check_reachable
from repro.models.smartlight import (
    TIDLE,
    TSW,
    smartlight_network,
    smartlight_plant,
)
from repro.semantics.system import OPEN, System
from repro.ta.validate import check_input_enabledness, validate_plant
from repro.tctl import GoalPredicate, parse_query


@pytest.fixture(scope="module")
def composed():
    return System(smartlight_network())


@pytest.fixture(scope="module")
def plant():
    return System(smartlight_plant())


@pytest.fixture(scope="module")
def bright_result(composed):
    return solve_reachability_game(
        composed, parse_query("control: A<> IUT.Bright"), on_the_fly=False
    )


class TestModelShape:
    def test_constants_match_figure(self, composed):
        decls = composed.decls
        assert decls.constants["Tidle"] == TIDLE == 20
        assert decls.constants["Tsw"] == TSW == 4
        assert decls.constants["Treact"] == 1

    def test_three_brightness_levels(self, composed):
        iut = composed.network.automaton("IUT")
        for name in ("Off", "Dim", "Bright"):
            assert name in iut.locations
        # Six transient locations as in Fig. 2.
        for name in ("L1", "L2", "L3", "L4", "L5", "L6"):
            assert name in iut.locations
            assert iut.locations[name].invariant is not None

    def test_channel_partition(self, composed):
        net = composed.network
        assert net.channel_names("input") == ["touch"]
        assert set(net.channel_names("output")) == {"dim", "bright", "off"}

    def test_initially_off(self, composed):
        init = composed.initial_symbolic()
        assert composed.network.location_names(init.locs)[0] == "IUT.Off"


class TestPlantSanity:
    def test_all_levels_reachable(self, plant):
        for loc in ("Dim", "Bright", "Off"):
            goal = GoalPredicate(plant, parse_query(f"E<> IUT.{loc}").predicate)
            assert check_reachable(plant, goal.federation, mode=OPEN)

    def test_input_enabled(self, plant):
        report = check_input_enabledness(plant)
        assert report.ok, str(report)

    def test_deterministic_and_valid(self, plant):
        report = validate_plant(plant)
        assert report.ok, str(report)


class TestBrightGame:
    def test_purpose_holds(self, bright_result):
        """The paper's running test purpose control: A<> IUT.Bright."""
        assert bright_result.winning

    def test_strategy_exists_and_is_small(self, bright_result):
        strategy = Strategy(bright_result)
        assert 0 < strategy.size <= bright_result.nodes_explored

    def test_strategy_first_move_waits_for_user(self, composed, bright_result):
        # The user TA cannot touch before Treact = 1.
        strategy = Strategy(bright_result)
        decision = strategy.decide(composed.initial_concrete())
        assert decision.kind == Verdictish.WAIT
        assert decision.delay >= 1

    def test_strategy_fires_touch_after_wait(self, composed, bright_result):
        strategy = Strategy(bright_result)
        state = composed.initial_concrete().delayed(Fraction(1))
        decision = strategy.decide(state)
        assert decision.kind == Verdictish.FIRE
        assert decision.move.label == "touch"

    def test_fig5_style_rendering(self, bright_result):
        text = Strategy(bright_result).describe()
        assert "State:" in text
        assert "IUT.Off" in text
        assert "touch" in text

    def test_fig5_strategy_structure(self, bright_result):
        """The Fig. 5 strategy's qualitative content: wait in Off until the
        user may touch, take touch transitions, finish in Bright."""
        strategy = Strategy(bright_result)
        text = strategy.describe()
        assert "State:" in text
        assert "IUT.Off" in text and "IUT.Bright" in text
        assert "take transition" in text and "wait" in text
        # Every decision's move is a controllable touch.
        for ns in strategy.per_node.values():
            for decision in ns.actions:
                assert decision.move.label == "touch"
                assert decision.move.controllable

    def test_fig5_strategy_synthesis(self, bright_result):
        """Synthesis is reproducible: a fresh two-phase solve explores the
        same graph and yields a strategy of the same size."""
        again = solve_reachability_game(
            System(smartlight_network()),
            parse_query("control: A<> IUT.Bright"),
            on_the_fly=False,
        )
        assert again.winning
        assert again.nodes_explored == bright_result.nodes_explored
        assert Strategy(again).size == Strategy(bright_result).size > 0

    def test_fig5_strategy_rendering(self, bright_result):
        """The rendering is a deterministic multi-line listing."""
        text = Strategy(bright_result).describe()
        assert len(text) > 100 and text.count("\n") > 2
        assert Strategy(bright_result).describe() == text

    def test_purpose_holds_on_the_fly(self, composed):
        result = solve_reachability_game(
            composed, parse_query("control: A<> IUT.Bright"), on_the_fly=True
        )
        assert result.winning

    def test_goal_location_in_strategy_domain(self, bright_result):
        strategy = Strategy(bright_result)
        names = {
            strategy.result.graph.system.network.location_names(ns.node.sym.locs)[0]
            for ns in strategy.per_node.values()
        }
        assert "IUT.Bright" in names


class TestOtherPurposes:
    def test_dim_reachable_game(self, composed):
        res = solve_reachability_game(composed, parse_query("control: A<> IUT.Dim"))
        assert res.winning

    def test_off_trivially_won(self, composed):
        res = solve_reachability_game(composed, parse_query("control: A<> IUT.Off"))
        assert res.winning

    def test_timed_goal(self, composed):
        # Bright within 10 time units of system start is achievable: the
        # quick-touch route (Off -> L1 -> Dim -> L2 -> Bright) needs at
        # most 1 + 2 + 1 + 2 time units.
        res = solve_reachability_game(
            composed, parse_query("control: A<> IUT.Bright && z <= 10")
        )
        assert res.winning

    def test_arrival_resets_make_quick_bright_winnable(self, composed):
        # z is the user's reaction clock and is reset when the user
        # observes bright!, so arrival in Bright always has z == 0.
        res = solve_reachability_game(
            composed, parse_query("control: A<> IUT.Bright && z < 1")
        )
        assert res.winning

    def test_impossible_timed_goal(self, composed):
        # L5's invariant caps Tp at 2: the goal region is unsatisfiable.
        res = solve_reachability_game(
            composed, parse_query("control: A<> IUT.L5 && Tp > 2")
        )
        assert not res.winning
