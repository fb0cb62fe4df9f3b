"""Tests for cooperative testing (repro.game.cooperative) — future work 4.

The canonical setting: the game purpose is NOT winnable (the plant may
always dodge), but a cooperative plant can be steered to the goal.  The
verdict semantics: pass on goal, fail only on tioco violations,
inconclusive when the plant declines to cooperate.
"""


from repro.game import Verdictish, solve_cooperative
from repro.game.solver import solve_reachability_game
from repro.models.smartlight import smartlight_network
from repro.semantics.system import System
from repro.ta import NetworkBuilder
from repro.tctl import parse_query
from repro.testing import (
    EagerPolicy,
    SessionConfig,
    SimulatedImplementation,
    execute_test,
)
from repro.testing.trace import INCONCLUSIVE, PASS


def choice_network():
    """The plant chooses between good! and bad!; goal needs good.

    There is no winning strategy (the plant may always answer bad!), but
    a cooperative plant reaches the goal.
    """
    net = NetworkBuilder("coop")
    net.clock("x")
    net.input_channel("kick")
    net.output_channel("good", "bad")
    p = net.automaton("P")
    p.location("a", initial=True)
    p.location("pend", invariant="x <= 2")
    p.location("goal")
    p.location("back")
    p.edge("a", "pend", sync="kick?", assign="x := 0")
    p.edge("pend", "goal", sync="good!")
    p.edge("pend", "back", sync="bad!")
    p.edge("back", "pend", sync="kick?", assign="x := 0")
    e = net.automaton("E")
    e.location("e", initial=True)
    e.edge("e", "e", sync="kick!")
    e.edge("e", "e", sync="good?")
    e.edge("e", "e", sync="bad?")
    return net.build()


def choice_plant():
    net = NetworkBuilder("coop-plant")
    net.clock("x")
    net.input_channel("kick")
    net.output_channel("good", "bad")
    p = net.automaton("P")
    p.location("a", initial=True)
    p.location("pend", invariant="x <= 2")
    p.location("goal")
    p.location("back")
    p.edge("a", "pend", sync="kick?", assign="x := 0")
    p.edge("pend", "goal", sync="good!")
    p.edge("pend", "back", sync="bad!")
    p.edge("back", "pend", sync="kick?", assign="x := 0")
    return net.build()


class TestCooperativeStrategy:
    def test_game_is_not_winnable(self):
        sys_ = System(choice_network())
        res = solve_reachability_game(sys_, parse_query("control: A<> P.goal"))
        assert not res.winning

    def test_goal_cooperatively_reachable(self):
        sys_ = System(choice_network())
        coop = solve_cooperative(sys_, parse_query("control: A<> P.goal"))
        assert coop.goal_reachable
        assert coop.core is None  # no winning core

    def test_decides_toward_goal(self):
        sys_ = System(choice_network())
        coop = solve_cooperative(sys_, parse_query("control: A<> P.goal"))
        decision = coop.decide(sys_.initial_concrete())
        # First cooperative step: fire or schedule the kick.
        assert decision.kind in (Verdictish.FIRE, Verdictish.WAIT)

    def test_winning_core_used_when_game_won(self):
        sys_ = System(smartlight_network())
        coop = solve_cooperative(sys_, parse_query("control: A<> IUT.Bright"))
        assert coop.core is not None
        decision = coop.decide(sys_.initial_concrete())
        assert decision.kind in (Verdictish.FIRE, Verdictish.WAIT)


class TestCooperativeExecution:
    def run_against(self, policy):
        sys_ = System(choice_network())
        coop = solve_cooperative(sys_, parse_query("control: A<> P.goal"))
        spec = System(choice_plant())
        imp = SimulatedImplementation(System(choice_plant()), policy)
        return execute_test(
            coop, spec, imp, config=SessionConfig(max_iterations=40)
        )

    def test_cooperative_plant_passes(self):
        # EagerPolicy picks outputs alphabetically: bad < good — so the
        # eager plant answers bad! first, loops, and answers bad again...
        # use a policy that cooperates.
        class GoodPolicy(EagerPolicy):
            def choose(self, state, options, forced_by):
                goods = [o for o in options if o[0].label == "good"]
                return super().choose(state, goods or options, forced_by)

        run = self.run_against(GoodPolicy())
        assert run.verdict == PASS, str(run)

    def test_uncooperative_plant_inconclusive_or_loops(self):
        class BadPolicy(EagerPolicy):
            def choose(self, state, options, forced_by):
                bads = [o for o in options if o[0].label == "bad"]
                return super().choose(state, bads or options, forced_by)

        run = self.run_against(BadPolicy())
        # Never a fail: the plant conforms, it just refuses to cooperate.
        assert run.verdict == INCONCLUSIVE, str(run)
