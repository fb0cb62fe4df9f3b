"""Tests for the Leader Election Protocol case study (paper §4, Table 1)."""

import pytest

from repro.game import Strategy, solve_reachability_game
from repro.graph import check_reachable
from repro.models.lep import TEST_PURPOSES, TP1, TP2, TP3, lep_network, lep_plant
from repro.semantics.system import OPEN, System
from repro.tctl import GoalPredicate, parse_query


@pytest.fixture(scope="module")
def lep3():
    return System(lep_network(3))


class TestModelShape:
    def test_parametric_constants(self):
        for n in (2, 3, 5):
            net = lep_network(n)
            assert net.decls.constants["N"] == n
            assert net.decls.arrays["inUse"].size == n
            assert net.decls.range_types["BufferId"] == (0, n - 1)

    def test_timeout_scales_with_distance(self):
        # Twait = max(2, n-1): the paper ties timing to network diameter.
        assert lep_network(3).decls.constants["Twait"] == 2
        assert lep_network(6).decls.constants["Twait"] == 5

    def test_channel_partition(self, lep3):
        net = lep3.network
        assert set(net.channel_names("input")) == {"recv", "net_put"}
        assert set(net.channel_names("output")) == {"send", "timeout"}

    def test_minimum_size_rejected(self):
        with pytest.raises(ValueError):
            lep_network(1)
        with pytest.raises(ValueError):
            lep_plant(0)

    def test_three_automata(self, lep3):
        assert [a.name for a in lep3.automata] == ["IUT", "Env", "Buffer"]


class TestProtocolBehaviour:
    def test_better_info_reachable(self, lep3):
        goal = GoalPredicate(
            lep3, parse_query("E<> betterInfo == 1 && IUT.forward").predicate
        )
        assert check_reachable(lep3, goal.federation)

    def test_buffer_fillable(self, lep3):
        goal = GoalPredicate(
            lep3,
            parse_query("E<> forall (i : BufferId) (inUse[i] == 1)").predicate,
        )
        assert check_reachable(lep3, goal.federation)

    def test_best_only_improves(self, lep3):
        # A[] best <= N: the known best address never worsens.
        from repro.graph import check_invariant

        goal = GoalPredicate(lep3, parse_query("A[] best <= N && best >= 1").predicate)
        assert check_invariant(lep3, goal.federation)

    def test_timeout_cannot_fire_early(self, lep3):
        # The timeout needs w >= Twait; IUT.announce with w < Twait is
        # reachable only via... it is not reachable at all right after a
        # timeout, but the send-clock reset makes w < Twait in announce
        # reachable only *after* the timeout fired. Check the guard holds
        # at the transition by invariant: announce is entered with w == 0.
        goal = GoalPredicate(
            lep3, parse_query("E<> IUT.announce && w > 1").predicate
        )
        assert not check_reachable(lep3, goal.federation)


class TestPurposes:
    @pytest.mark.parametrize("name", ["TP1", "TP2", "TP3"])
    def test_purposes_parse(self, name):
        q = parse_query(TEST_PURPOSES[name])
        assert q.is_game

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("tp", [TP1, TP2, TP3])
    def test_purposes_hold(self, n, tp):
        """All three paper test purposes are checked true (paper §4)."""
        sys_ = System(lep_network(n))
        res = solve_reachability_game(sys_, parse_query(tp), time_limit=120)
        assert res.winning

    def test_tp_difficulty_ordering(self):
        """TP2/TP3 explore far more of the state space than TP1 — the
        qualitative shape of the paper's Table 1."""
        sys_ = System(lep_network(4))
        nodes = {}
        for name, tp in TEST_PURPOSES.items():
            res = solve_reachability_game(sys_, parse_query(tp), time_limit=120)
            nodes[name] = res.nodes_explored
        assert nodes["TP1"] * 2 < nodes["TP2"]
        assert nodes["TP1"] * 2 < nodes["TP3"]

    def test_strategy_extractable_for_tp1(self):
        sys_ = System(lep_network(3))
        res = solve_reachability_game(sys_, parse_query(TP1), time_limit=60)
        strategy = Strategy(res)
        assert strategy.size > 0
        decision = strategy.decide(sys_.initial_concrete())
        assert decision.kind in ("fire", "wait")


class TestGrowth:
    def test_state_space_grows_with_n(self):
        """Super-linear growth in n for the buffer-filling purpose."""
        counts = []
        for n in (2, 3, 4):
            sys_ = System(lep_network(n))
            res = solve_reachability_game(sys_, parse_query(TP2), time_limit=120)
            counts.append(res.nodes_explored)
        assert counts[0] < counts[1] < counts[2]
        # Roughly doubling per node added.
        assert counts[2] >= counts[1] * 1.5


class TestPlantModel:
    def test_plant_is_open_system(self):
        plant = System(lep_plant(3))
        init = plant.initial_symbolic()
        moves = plant.moves_from(init.locs, init.vars, OPEN)
        labels = {m.label for m in moves}
        assert "recv" in labels
        # Timeout not yet enabled at w == 0 (integer guard holds; the
        # clock guard is part of the zone, so the move is listed).
        assert "timeout" in labels

    def test_plant_committed_processing(self):
        plant = System(lep_plant(3))
        iut = plant.network.automaton("IUT")
        for name in ("rcv", "rcvF", "rcvA"):
            assert iut.locations[name].committed
