"""Figure 5 — winning-strategy synthesis for the Smart Light.

The paper's Fig. 5 shows the state-based winning strategy UPPAAL-TIGA
generates for the running example (Fig. 2/3) and the test purpose
``control: A<> IUT.Bright``.  This benchmark times the synthesis and
checks the strategy's structural properties; the strategy text itself is
regenerated by ``examples/smartlight_strategy.py``.
"""


from repro.game import Strategy, solve_reachability_game
from repro.models.smartlight import smartlight_network
from repro.semantics.system import System
from repro.tctl import parse_query

PURPOSE = "control: A<> IUT.Bright"


def synthesize(on_the_fly: bool):
    system = System(smartlight_network())
    result = solve_reachability_game(
        system, parse_query(PURPOSE), on_the_fly=on_the_fly
    )
    return result, Strategy(result) if result.winning else None


def test_fig5_strategy_synthesis(benchmark):
    result, strategy = benchmark(synthesize, False)
    assert result.winning
    assert strategy is not None
    benchmark.extra_info["nodes"] = result.nodes_explored
    benchmark.extra_info["strategy_states"] = strategy.size


def test_fig5_strategy_synthesis_on_the_fly(benchmark):
    result, strategy = benchmark(synthesize, True)
    assert result.winning
    benchmark.extra_info["nodes"] = result.nodes_explored


def test_fig5_strategy_structure():
    """The Fig. 5 strategy's qualitative content: wait in Off until the
    user may touch, take touch transitions, finish in Bright."""
    result, strategy = synthesize(False)
    text = strategy.describe()
    assert "State:" in text
    assert "IUT.Off" in text and "IUT.Bright" in text
    assert "take transition" in text and "wait" in text
    # Every decision's move is a controllable touch.
    for ns in strategy.per_node.values():
        for decision in ns.actions:
            assert decision.move.label == "touch"
            assert decision.move.controllable


def test_fig5_strategy_rendering_speed(benchmark):
    result, strategy = synthesize(False)
    text = benchmark(strategy.describe)
    assert len(text) > 100
