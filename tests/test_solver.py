"""Tests for the timed reachability-game solver on hand-crafted games.

Each model here is small enough that the winner is obvious by inspection;
together they cover the solver's distinct mechanisms: controllable
reachability, uncontrollable spoilers, safe-delay computation (Predt),
forced outputs at invariant boundaries, committed states, and rank-layer
bookkeeping.
"""


import pytest

from repro.game import (
    GameError,
    OnTheFlySolver,
    TwoPhaseSolver,
    solve_reachability_game,
)
from repro.semantics.system import System
from repro.ta import NetworkBuilder
from repro.tctl import parse_query


def solve(net, query_text, on_the_fly=False):
    sys_ = System(net)
    return sys_, solve_reachability_game(
        sys_, parse_query(query_text), on_the_fly=on_the_fly
    )


def simple_reach():
    """Controller can always reach goal via its own input."""
    net = NetworkBuilder("simple")
    net.clock("x")
    net.input_channel("go")
    p = net.automaton("P")
    p.location("a", initial=True)
    p.location("goal")
    p.edge("a", "goal", guard="x >= 2", sync="go?")
    e = net.automaton("E")
    e.location("e", initial=True)
    e.edge("e", "e", sync="go!")
    return net.build()


def spoiler_game(guard_window: str):
    """The plant may divert to a trap while the controller waits.

    The controller must take ``go`` within the window; the plant can fire
    ``bad!`` once w >= 3 and send the game to a trap.
    """
    net = NetworkBuilder("spoiler")
    net.clock("w")
    net.input_channel("go")
    net.output_channel("bad")
    p = net.automaton("P")
    p.location("a", initial=True)
    p.location("goal")
    p.location("trap")
    p.edge("a", "goal", guard=guard_window, sync="go?")
    p.edge("a", "trap", guard="w >= 3", sync="bad!")
    e = net.automaton("E")
    e.location("e", initial=True)
    e.edge("e", "e", sync="go!")
    e.edge("e", "e", sync="bad?")
    return net.build()


def forced_output_game():
    """Goal reachable only through an uncontrollable—but forced—output."""
    net = NetworkBuilder("forced")
    net.clock("x")
    net.input_channel("kick")
    net.output_channel("done")
    p = net.automaton("P")
    p.location("a", initial=True)
    p.location("pend", invariant="x <= 2")
    p.location("goal")
    p.edge("a", "pend", sync="kick?", assign="x := 0")
    p.edge("pend", "goal", sync="done!")
    e = net.automaton("E")
    e.location("e", initial=True)
    e.edge("e", "e", sync="kick!")
    e.edge("e", "e", sync="done?")
    return net.build()


def quiescent_trap_game():
    """Like forced_output_game but the plant may also idle forever
    (no invariant), so the output is NOT forced and the game is lost."""
    net = NetworkBuilder("quiescent")
    net.clock("x")
    net.input_channel("kick")
    net.output_channel("done")
    p = net.automaton("P")
    p.location("a", initial=True)
    p.location("pend")  # no invariant: output may never come
    p.location("goal")
    p.edge("a", "pend", sync="kick?", assign="x := 0")
    p.edge("pend", "goal", sync="done!")
    e = net.automaton("E")
    e.location("e", initial=True)
    e.edge("e", "e", sync="kick!")
    e.edge("e", "e", sync="done?")
    return net.build()


def output_choice_game():
    """The plant chooses between a good and a bad forced output."""
    net = NetworkBuilder("choice")
    net.clock("x")
    net.input_channel("kick")
    net.output_channel("good", "badout")
    p = net.automaton("P")
    p.location("a", initial=True)
    p.location("pend", invariant="x <= 2")
    p.location("goal")
    p.location("trap")
    p.edge("a", "pend", sync="kick?", assign="x := 0")
    p.edge("pend", "goal", sync="good!")
    p.edge("pend", "trap", sync="badout!")
    e = net.automaton("E")
    e.location("e", initial=True)
    for c in ("good", "badout"):
        e.edge("e", "e", sync=f"{c}?")
    e.edge("e", "e", sync="kick!")
    return net.build()


class TestBasicGames:
    def test_simple_reach_winning(self):
        sys_, res = solve(simple_reach(), "control: A<> P.goal")
        assert res.winning

    def test_unreachable_goal_losing(self):
        net = NetworkBuilder("never")
        net.clock("x")
        net.input_channel("go")
        p = net.automaton("P")
        p.location("a", initial=True)
        p.location("goal")
        p.edge("a", "a", sync="go?")
        e = net.automaton("E")
        e.location("e", initial=True)
        e.edge("e", "e", sync="go!")
        sys_, res = solve(net.build(), "control: A<> P.goal")
        assert not res.winning

    def test_initially_satisfied_goal(self):
        sys_, res = solve(simple_reach(), "control: A<> P.a")
        assert res.winning

    def test_clock_constrained_goal(self):
        sys_, res = solve(simple_reach(), "control: A<> P.goal && x <= 10")
        assert res.winning

    def test_unsatisfiable_clock_goal(self):
        # x >= 2 is needed to move, and the goal wants x < 1 at arrival.
        sys_, res = solve(simple_reach(), "control: A<> P.goal && x < 1")
        assert not res.winning


class TestSpoiler:
    def test_window_before_spoiler_wins(self):
        # Controller can go at w in [1, 3]; spoiler fires from w >= 3.
        sys_, res = solve(spoiler_game("w >= 1 && w <= 3"), "control: A<> P.goal")
        assert res.winning

    def test_window_after_spoiler_loses(self):
        # Controller can only go from w >= 4, but the plant may fire bad!
        # anywhere in w >= 3 — in particular before 4.
        sys_, res = solve(spoiler_game("w >= 4"), "control: A<> P.goal")
        assert not res.winning

    def test_tie_at_boundary_favours_opponent(self):
        # Both enabled exactly at w == 3: opponent wins the race.
        sys_, res = solve(spoiler_game("w >= 3 && w <= 3"), "control: A<> P.goal")
        assert not res.winning


class TestForcedOutputs:
    def test_invariant_forces_output(self):
        sys_, res = solve(forced_output_game(), "control: A<> P.goal")
        assert res.winning

    def test_without_invariant_not_forced(self):
        sys_, res = solve(quiescent_trap_game(), "control: A<> P.goal")
        assert not res.winning

    def test_plant_output_choice_defeats(self):
        sys_, res = solve(output_choice_game(), "control: A<> P.goal")
        assert not res.winning

    def test_plant_output_choice_both_goals(self):
        # If both outcomes are goals, the forced choice is harmless.
        sys_, res = solve(
            output_choice_game(), "control: A<> P.goal || P.trap"
        )
        assert res.winning


class TestSolverVariants:
    @pytest.mark.parametrize("factory,query,expected", [
        (simple_reach, "control: A<> P.goal", True),
        (forced_output_game, "control: A<> P.goal", True),
        (quiescent_trap_game, "control: A<> P.goal", False),
        (output_choice_game, "control: A<> P.goal", False),
    ])
    def test_on_the_fly_agrees_with_two_phase(self, factory, query, expected):
        _, two_phase = solve(factory(), query, on_the_fly=False)
        _, otf = solve(factory(), query, on_the_fly=True)
        assert two_phase.winning == otf.winning == expected

    def test_on_the_fly_explores_less_on_positive(self):
        from repro.models.lep import TP2, lep_network

        sys_ = System(lep_network(4))
        otf = OnTheFlySolver(sys_, parse_query(TP2)).solve()
        full = TwoPhaseSolver(sys_, parse_query(TP2)).solve()
        assert otf.winning and full.winning
        assert otf.nodes_explored < full.nodes_explored

    def test_lost_game_explores_the_same_graph(self):
        """On a lost game early termination cannot help: the on-the-fly
        solver ends up exploring exactly the two-phase solver's graph."""
        from repro.models.smartlight import smartlight_network

        query = "control: A<> IUT.L5 && Tp > 2"  # unsatisfiable goal
        _, otf = solve(smartlight_network(), query, on_the_fly=True)
        _, full = solve(smartlight_network(), query, on_the_fly=False)
        assert not otf.winning and not full.winning
        assert otf.nodes_explored == full.nodes_explored

    def test_wrong_query_kind_rejected(self):
        sys_ = System(simple_reach())
        with pytest.raises(GameError):
            TwoPhaseSolver(sys_, parse_query("control: A[] x >= 0"))


class TestWinningSets:
    def test_win_layers_monotone(self):
        sys_, res = solve(forced_output_game(), "control: A<> P.goal")
        for entry in res.wins.values():
            steps = [step for step, _ in entry.layers]
            assert steps == sorted(steps)

    def test_win_within_zone(self):
        sys_, res = solve(spoiler_game("w >= 1 && w <= 3"), "control: A<> P.goal")
        from repro.dbm import Federation

        for node in res.graph.nodes:
            win = res.win_of(node)
            assert Federation.from_zone(node.zone).includes(win)

    def test_initial_win_requires_point(self):
        # The game is won from the zero valuation specifically.
        sys_, res = solve(spoiler_game("w >= 1 && w <= 3"), "control: A<> P.goal")
        init_win = res.win_of(res.graph.initial)
        assert init_win.contains(sys_.initial_concrete().clocks)
