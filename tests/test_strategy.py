"""Tests for strategy extraction and the runtime decision procedure.

The key property (the computational content of Theorem 11's witness) is
checked by *adversarial simulation*: playing the extracted strategy
against every plant behaviour generated by a seeded random opponent must
reach the goal in bounded time.
"""

import random
from fractions import Fraction

import pytest

from repro.game import Strategy, Verdictish, solve_reachability_game
from repro.game.strategy import federation_delay_candidates, zone_delay_interval
from repro.dbm import DBM, Federation, le, lt, scale
from repro.semantics.system import System
from repro.tctl import parse_query

from tests.test_solver import (
    forced_output_game,
    output_choice_game,
    simple_reach,
    spoiler_game,
)
from tests.zone_strategies import box


class TestZoneDelayGeometry:
    def test_interval_into_box(self):
        zone = box(2, [(3, 5)])
        interval = zone_delay_interval(zone, *scale([Fraction(0), Fraction(1)]))
        assert interval.lo == 2 and not interval.lo_strict
        assert interval.hi == 4 and not interval.hi_strict

    def test_interval_when_inside(self):
        zone = box(2, [(3, 5)])
        interval = zone_delay_interval(zone, *scale([Fraction(0), Fraction(4)]))
        assert interval.contains(Fraction(0))

    def test_interval_after_zone(self):
        zone = box(2, [(3, 5)])
        assert zone_delay_interval(zone, *scale([Fraction(0), Fraction(6)])) is None

    def test_diagonal_blocks(self):
        zone = DBM.from_constraints(3, [(1, 2, le(0)), (2, 1, le(0))])  # x == y
        apart = scale([Fraction(0), Fraction(1), Fraction(2)])
        together = scale([Fraction(0), Fraction(2), Fraction(2)])
        assert zone_delay_interval(zone, *apart) is None
        assert zone_delay_interval(zone, *together) is not None

    def test_strict_entry_candidate_positive(self):
        zone = DBM.from_constraints(2, [(0, 1, lt(-3))])  # x > 3
        fed = Federation.from_zone(zone)
        candidates = federation_delay_candidates(fed, *scale([0, 0]))
        assert candidates and all(c > 3 for c in candidates)


class TestStrategyExtraction:
    def test_requires_won_game(self):
        sys_ = System(simple_reach())
        res = solve_reachability_game(sys_, parse_query("control: A<> P.goal && x < 1"))
        assert not res.winning
        with pytest.raises(ValueError):
            Strategy(res)

    def test_strategy_covers_initial(self):
        sys_ = System(simple_reach())
        res = solve_reachability_game(sys_, parse_query("control: A<> P.goal"))
        strategy = Strategy(res)
        decision = strategy.decide(sys_.initial_concrete())
        assert decision.kind in (Verdictish.FIRE, Verdictish.WAIT)

    def test_decide_done_at_goal(self):
        sys_ = System(simple_reach())
        res = solve_reachability_game(sys_, parse_query("control: A<> P.a"))
        strategy = Strategy(res)
        assert strategy.decide(sys_.initial_concrete()).kind == Verdictish.DONE

    def test_decide_lost_outside_win(self):
        sys_ = System(spoiler_game("w >= 1 && w <= 3"))
        res = solve_reachability_game(sys_, parse_query("control: A<> P.goal"))
        strategy = Strategy(res)
        # At w == 4 the window is closed: no longer winning.
        late = sys_.initial_concrete().delayed(Fraction(4))
        assert strategy.decide(late).kind == Verdictish.LOST

    def test_action_decisions_rank_decrease(self):
        sys_ = System(forced_output_game())
        res = solve_reachability_game(sys_, parse_query("control: A<> P.goal"))
        strategy = Strategy(res)
        for ns in strategy.per_node.values():
            node_steps = [s for s, _ in ns.win.layers]
            for decision in ns.actions:
                # Action decisions reference some target layer; they are
                # filtered against the *current* rank only at runtime, but
                # their target steps must exist.
                assert decision.step >= 1 or decision.step == 0

    def test_describe_mentions_transitions(self):
        sys_ = System(simple_reach())
        res = solve_reachability_game(sys_, parse_query("control: A<> P.goal"))
        text = Strategy(res).describe()
        assert "State:" in text
        assert "take transition" in text
        assert "go" in text


def simulate_against_random_plant(net_factory, query_text, seed, max_steps=60):
    """Play the strategy against a random adversarial plant.

    The opponent picks random enabled uncontrollable moves at random legal
    times (including choosing quiescence where allowed).  Returns True if
    the goal is reached.
    """
    sys_ = System(net_factory())
    res = solve_reachability_game(sys_, parse_query(query_text))
    assert res.winning
    strategy = Strategy(res)
    rng = random.Random(seed)
    state = sys_.initial_concrete()

    for _ in range(max_steps):
        decision = strategy.decide(state)
        if decision.kind == Verdictish.DONE:
            return True
        assert decision.kind != Verdictish.LOST, "strategy left winning region"
        if decision.kind == Verdictish.FIRE:
            nxt = sys_.fire(state, decision.move)
            assert nxt is not None, "strategy fired a disabled move"
            state = nxt
            continue
        # WAIT: the opponent may act at any legal time before the tester's
        # schedule; otherwise time passes to the schedule.
        horizon = decision.delay
        bound, strict = sys_.max_delay(state)
        if horizon is None:
            horizon = bound if bound is not None else Fraction(10)
        # Collect uncontrollable moves and their windows.
        options = []
        for move in sys_.moves_from(state.locs, state.vars):
            if move.controllable:
                continue
            interval = sys_.enabled_interval(state, move)
            if interval is None:
                continue
            lo = interval.pick()
            if lo <= horizon:
                options.append((move, lo))
        act_now = options and rng.random() < 0.6
        if act_now:
            move, at = rng.choice(options)
            state = sys_.fire(state.delayed(at), move)
            assert state is not None
        else:
            if bound is not None and horizon > bound:
                horizon = bound
            state = state.delayed(horizon)
    return False


class TestAdversarialSimulation:
    @pytest.mark.parametrize("seed", range(8))
    def test_simple_reach(self, seed):
        assert simulate_against_random_plant(
            simple_reach, "control: A<> P.goal", seed
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_spoiler_window(self, seed):
        assert simulate_against_random_plant(
            lambda: spoiler_game("w >= 1 && w <= 3"), "control: A<> P.goal", seed
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_forced_output(self, seed):
        assert simulate_against_random_plant(
            forced_output_game, "control: A<> P.goal", seed
        )

    @pytest.mark.parametrize("seed", range(8))
    def test_output_choice_either_goal(self, seed):
        assert simulate_against_random_plant(
            output_choice_game, "control: A<> P.goal || P.trap", seed
        )
