"""Whole-pipeline integration tests through the top-level public API.

Each test exercises the documented workflow exactly as README shows it:
model → purpose → solve → strategy → execute → verdict, plus the
serialization round trip and the validation helpers.
"""

import json

import repro
from repro import (
    NetworkBuilder,
    Strategy,
    System,
    execute_test,
    parse_query,
    solve_reachability_game,
    validate_plant,
)
from repro.game import save_strategy, load_strategy
from repro.testing import EagerPolicy, LazyPolicy, SimulatedImplementation


class TestPublicApi:
    def test_version(self):
        assert repro.__version__

    def test_all_documented_names_importable(self):
        for name in (
            "DBM",
            "Federation",
            "Declarations",
            "NetworkBuilder",
            "System",
            "Strategy",
            "Decision",
            "GameResult",
            "TwoPhaseSolver",
            "OnTheFlySolver",
            "SafetyGameSolver",
            "CooperativeStrategy",
            "TiocoMonitor",
            "SimulatedImplementation",
            "TestExecutor",
            "parse_query",
            "parse_expression",
            "solve_reachability_game",
            "solve_safety_game",
            "solve_cooperative",
            "execute_test",
            "check_reachable",
            "check_invariant",
            "validate_plant",
            "PASS",
            "FAIL",
            "INCONCLUSIVE",
        ):
            assert hasattr(repro, name), f"missing public name {name}"


class TestReadmeWorkflow:
    def build_coffee(self, with_env):
        net = NetworkBuilder("coffee")
        net.clock("x")
        net.input_channel("coin")
        net.output_channel("coffee")
        m = net.automaton("M")
        m.location("idle", initial=True)
        m.location("brew", invariant="x <= 4")
        m.location("cup")
        m.edge("idle", "brew", sync="coin?", assign="x := 0")
        m.edge("brew", "cup", guard="x >= 2", sync="coffee!")
        m.edge("brew", "brew", sync="coin?")
        m.edge("cup", "cup", sync="coin?")
        if with_env:
            e = net.automaton("E")
            e.location("e", initial=True)
            e.edge("e", "e", sync="coin!")
            e.edge("e", "e", sync="coffee?")
        return net.build()

    def test_full_workflow(self, tmp_path):
        arena = System(self.build_coffee(True))
        plant = System(self.build_coffee(False))

        report = validate_plant(plant)
        assert report.ok, str(report)

        result = solve_reachability_game(arena, parse_query("control: A<> M.cup"))
        assert result.winning
        strategy = Strategy(result)

        path = tmp_path / "coffee.json"
        save_strategy(strategy, path)
        packed = load_strategy(System(self.build_coffee(True)), path)

        for runner in (strategy, packed):
            for policy in (EagerPolicy(), LazyPolicy()):
                imp = SimulatedImplementation(
                    System(self.build_coffee(False)), policy
                )
                run = execute_test(runner, plant, imp)
                assert run.passed, str(run)
                assert run.trace.actions[-1].label == "coffee"

    def test_verdict_on_broken_machine(self):
        from repro.testing.mutants import widen_invariant

        arena = System(self.build_coffee(True))
        plant = System(self.build_coffee(False))
        strategy = Strategy(
            solve_reachability_game(arena, parse_query("control: A<> M.cup"))
        )
        broken = widen_invariant(self.build_coffee(False), "M", "brew", +3)
        imp = SimulatedImplementation(System(broken), LazyPolicy())
        run = execute_test(strategy, plant, imp)
        assert run.failed
        assert "quiescent" in run.reason


class TestCrossModel:
    """All three shipped case studies run through the same pipeline."""

    def test_smartlight(self):
        from repro.models import smartlight_network, smartlight_plant

        arena = System(smartlight_network())
        result = solve_reachability_game(
            arena, parse_query("control: A<> IUT.Bright")
        )
        strategy = Strategy(result)
        imp = SimulatedImplementation(System(smartlight_plant()), EagerPolicy())
        run = execute_test(strategy, System(smartlight_plant()), imp)
        assert run.passed

    def test_lep(self):
        from repro.models import TP1, lep_network, lep_plant

        arena = System(lep_network(3))
        result = solve_reachability_game(arena, parse_query(TP1), time_limit=60)
        strategy = Strategy(result)
        imp = SimulatedImplementation(System(lep_plant(3)), LazyPolicy())
        run = execute_test(strategy, System(lep_plant(3)), imp)
        assert run.passed

    def test_traingate(self):
        from repro.models import exclusion_purpose, traingate_network
        from repro import solve_safety_game

        arena = System(traingate_network(2))
        result = solve_safety_game(
            arena, parse_query(exclusion_purpose(2)), time_limit=120
        )
        assert result.winning


class TestExtendedPublicApi:
    def test_extension_names_importable(self):
        import repro

        for name in (
            "find_deadlocks",
            "SafetyStrategy",
            "TestCampaign",
            "CampaignReport",
            "replay_trace",
            "save_strategy",
            "load_strategy",
            "PackedStrategy",
            "RelativizedMonitor",
        ):
            assert hasattr(repro, name), f"missing public name {name}"
