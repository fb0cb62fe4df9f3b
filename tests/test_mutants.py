"""Tests for the mutation framework (repro.testing.mutants)."""

import pytest

from repro.game import Strategy, solve_reachability_game
from repro.models.smartlight import smartlight_network, smartlight_plant
from repro.semantics.system import System
from repro.tctl import parse_query
from repro.testing import (
    EagerPolicy,
    LazyPolicy,
    QuiescentPolicy,
    RandomPolicy,
    SimulatedImplementation,
    execute_test,
)
from repro.testing.mutants import (
    Mutant,
    MutationError,
    add_spurious_edge,
    clone_network,
    drop_edge,
    find_edges,
    retarget_edge,
    shift_guard_constant,
    swap_output_channel,
    widen_invariant,
)
from repro.testing.trace import FAIL, PASS


class TestClone:
    def test_clone_is_independent(self):
        original = smartlight_plant()
        clone = clone_network(original)
        clone.automaton("IUT").edges.pop()
        assert len(original.automaton("IUT").edges) != len(
            clone.automaton("IUT").edges
        )

    def test_clone_preserves_structure(self):
        original = smartlight_plant()
        clone = clone_network(original).prepare()
        assert len(clone.automaton("IUT").edges) == len(
            original.automaton("IUT").edges
        )
        assert clone.initial_locations() == original.initial_locations()

    def test_clone_renames(self):
        clone = clone_network(smartlight_plant(), "-x")
        assert clone.name.endswith("-x")


class TestSelectors:
    def test_find_by_sync(self):
        edges = find_edges(smartlight_plant(), sync="dim!")
        assert len(edges) == 2  # L1 -> Dim and L5 -> Dim

    def test_find_by_source_and_sync(self):
        edges = find_edges(smartlight_plant(), source="L5", sync="bright!")
        assert len(edges) == 1

    def test_find_by_target(self):
        edges = find_edges(smartlight_plant(), target="Bright")
        assert len(edges) == 3  # from L5, L2, L6

    def test_no_match_raises_in_operators(self):
        with pytest.raises(MutationError):
            drop_edge(smartlight_plant(), source="Nowhere")


class TestOperators:
    def test_shift_guard(self):
        mutant = shift_guard_constant(
            smartlight_plant(), -1, automaton="IUT", source="Off", target="L5"
        )
        aut, pos = find_edges(mutant, source="Off", target="L5")[0]
        guard_text = str(aut.edges[pos].guard)
        assert "Tidle - 1" in guard_text

    def test_shift_guard_requires_guard(self):
        with pytest.raises(MutationError):
            shift_guard_constant(
                smartlight_plant(), 1, automaton="IUT", source="Bright"
            )

    def test_widen_invariant(self):
        mutant = widen_invariant(smartlight_plant(), "IUT", "L1", 2)
        loc = mutant.automaton("IUT").locations["L1"]
        assert "4" in str(loc.invariant)

    def test_widen_invariant_requires_invariant(self):
        with pytest.raises(MutationError):
            widen_invariant(smartlight_plant(), "IUT", "Off", 2)

    def test_retarget(self):
        mutant = retarget_edge(
            smartlight_plant(), "Off", automaton="IUT", source="L2", sync="bright!"
        )
        aut, pos = find_edges(mutant, source="L2", sync="bright!")[0]
        assert aut.edges[pos].target == "Off"

    def test_retarget_unknown_location(self):
        with pytest.raises(MutationError):
            retarget_edge(
                smartlight_plant(), "Nowhere", automaton="IUT", source="L2"
            )

    def test_swap_output(self):
        mutant = swap_output_channel(
            smartlight_plant(), "off", automaton="IUT", source="L1", sync="dim!"
        )
        aut, pos = find_edges(mutant, source="L1", target="Dim")[0]
        assert aut.edges[pos].sync == ("off", "!")

    def test_swap_unknown_channel(self):
        with pytest.raises(MutationError):
            swap_output_channel(
                smartlight_plant(), "nosuch", automaton="IUT", source="L1"
            )

    def test_drop_edge(self):
        original_count = len(smartlight_plant().automaton("IUT").edges)
        mutant = drop_edge(
            smartlight_plant(), automaton="IUT", source="L2", sync="bright!"
        )
        assert len(mutant.automaton("IUT").edges) == original_count - 1

    def test_add_spurious_edge(self):
        mutant = add_spurious_edge(
            smartlight_plant(),
            "IUT",
            "Off",
            "Bright",
            guard="x >= 1",
            sync="bright!",
        )
        assert find_edges(mutant, source="Off", target="Bright")

    def test_mutants_are_runnable(self):
        """Every operator yields a loadable, executable network."""
        mutants = [
            shift_guard_constant(
                smartlight_plant(), 1, automaton="IUT", source="Off", target="L5"
            ),
            widen_invariant(smartlight_plant(), "IUT", "L1", 1),
            retarget_edge(
                smartlight_plant(), "Dim", automaton="IUT", source="L2",
                sync="bright!",
            ),
            swap_output_channel(
                smartlight_plant(), "dim", automaton="IUT", source="L2",
                sync="bright!",
            ),
            drop_edge(smartlight_plant(), automaton="IUT", source="L3", sync="off!"),
            add_spurious_edge(
                smartlight_plant(), "IUT", "Dim", "Bright", sync="bright!"
            ),
        ]
        for mutant in mutants:
            sys_ = System(mutant)
            init = sys_.initial_symbolic()
            assert init is not None


# ----------------------------------------------------------------------
# Fault detection of the Smart Light strategy test
# ----------------------------------------------------------------------
#
# How effective are winning-strategy tests at detecting faults (the
# paper's future-work item 3)?  Every on-path tioco violation in this
# pool must be caught under some output policy, and no conforming
# implementation (refinements included) may ever be flagged.  Off-path
# faults may survive: that is the price of targeted testing.

POLICIES = [
    ("eager", EagerPolicy),
    ("lazy", LazyPolicy),
    ("quiescent", QuiescentPolicy),
    ("random0", lambda: RandomPolicy(0)),
    ("random1", lambda: RandomPolicy(1)),
]


def mutant_pool():
    plant = smartlight_plant
    return [
        Mutant(
            "wrong-output-L1",
            swap_output_channel(plant(), "bright", automaton="IUT",
                                source="L1", sync="dim!"),
            "L1 answers bright! instead of dim!",
            expected_caught=True,
        ),
        Mutant(
            "wrong-output-L6",
            swap_output_channel(plant(), "dim", automaton="IUT",
                                source="L6", sync="bright!"),
            "L6 answers dim! instead of bright!",
            expected_caught=True,
        ),
        Mutant(
            "late-L6",
            widen_invariant(plant(), "IUT", "L6", +2),
            "L6 may answer 2 time units late",
            expected_caught=True,
        ),
        Mutant(
            "missing-bright-L6",
            drop_edge(plant(), automaton="IUT", source="L6", sync="bright!"),
            "L6 never answers",
            expected_caught=True,
        ),
        Mutant(
            "late-L2",
            widen_invariant(plant(), "IUT", "L2", +2),
            "L2 may answer late (off the strategy's path)",
            expected_caught=False,
        ),
        Mutant(
            "early-L1",
            widen_invariant(plant(), "IUT", "L1", -1),
            "L1 answers faster: a tioco refinement, conforming",
            expected_caught=False,
        ),
        Mutant(
            "idle-threshold-off-by-one",
            shift_guard_constant(plant(), -1, automaton="IUT",
                                 source="Off", target="L5"),
            "reactivation threshold off by one (boundary-only fault)",
            expected_caught=False,
        ),
        Mutant(
            "retarget-bright-to-off",
            retarget_edge(plant(), "Off", automaton="IUT", source="L6",
                          sync="bright!"),
            "bright! emitted but light actually turns off (post-goal)",
            expected_caught=False,
        ),
    ]


@pytest.fixture(scope="module")
def bright_test():
    """The ``control: A<> IUT.Bright`` strategy and the spec plant."""
    result = solve_reachability_game(
        System(smartlight_network()),
        parse_query("control: A<> IUT.Bright"),
        on_the_fly=False,
    )
    return Strategy(result), System(smartlight_plant())


@pytest.mark.parametrize(
    "policy_factory", [f for _, f in POLICIES], ids=[n for n, _ in POLICIES]
)
def test_conforming_plant_passes(bright_test, policy_factory):
    strategy, spec = bright_test
    imp = SimulatedImplementation(System(smartlight_plant()), policy_factory())
    assert execute_test(strategy, spec, imp).verdict == PASS


@pytest.fixture(scope="module")
def kill_outcomes(bright_test):
    """Per mutant of the pool: whether some output policy catches it."""
    strategy, spec = bright_test
    return [
        (
            mutant,
            any(
                execute_test(
                    strategy,
                    spec,
                    SimulatedImplementation(System(mutant.network), factory()),
                ).verdict == FAIL
                for _, factory in POLICIES
            ),
        )
        for mutant in mutant_pool()
    ]


def test_mutation_detection_report(kill_outcomes):
    for mutant, caught in kill_outcomes:
        if mutant.expected_caught:
            assert caught, f"{mutant.name} should be caught ({mutant.description})"
        else:
            assert not caught, (
                f"{mutant.name} unexpectedly caught: either the mutant is"
                f" on-path after all or the executor produced a false alarm"
            )


def test_mutation_score(kill_outcomes):
    """Half the pool is killed: every on-path fault and nothing else."""
    killed = sum(caught for _, caught in kill_outcomes)
    assert killed == sum(m.expected_caught for m, _ in kill_outcomes) == 4
    assert killed * 2 == len(kill_outcomes)
