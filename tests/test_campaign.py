"""Tests for test campaigns (repro.testing.campaign)."""

import pytest

from repro.models.smartlight import smartlight_network, smartlight_plant
from repro.semantics.system import System
from repro.testing import (
    EagerPolicy,
    LazyPolicy,
    SessionConfig,
    SimulatedImplementation,
)
from repro.testing.campaign import TestCampaign as Campaign
from repro.testing.mutants import swap_output_channel
from repro.testing.trace import PASS


PURPOSES = [
    "control: A<> IUT.Bright",
    "control: A<> IUT.Dim",
    "control: A<> IUT.Off",
]


@pytest.fixture(scope="module")
def campaign():
    camp = Campaign(
        System(smartlight_network()), System(smartlight_plant()), PURPOSES
    )
    camp.synthesize_all()
    return camp


class TestSynthesis:
    def test_all_purposes_winning(self, campaign):
        flags = campaign.synthesize_all()
        assert all(flags.values())

    def test_strategies_cached(self, campaign):
        first = campaign.strategy_for(campaign.queries[0])
        second = campaign.strategy_for(campaign.queries[0])
        assert first is second

    def test_cooperative_fallback(self):
        # "Bright while Tp impossible" has no winning strategy; the
        # campaign falls back to a cooperative one instead of giving up.
        camp = Campaign(
            System(smartlight_network()),
            System(smartlight_plant()),
            ["control: A<> IUT.L5 && Tp > 2"],
        )
        strategy = camp.strategy_for(camp.queries[0])
        from repro.game import CooperativeStrategy

        assert isinstance(strategy, CooperativeStrategy)

    def test_cooperative_disabled(self):
        camp = Campaign(
            System(smartlight_network()),
            System(smartlight_plant()),
            ["control: A<> IUT.L5 && Tp > 2"],
            allow_cooperative=False,
        )
        assert camp.strategy_for(camp.queries[0]) is None


class TestExecution:
    def test_conforming_implementation(self, campaign):
        report = campaign.run(
            lambda: SimulatedImplementation(
                System(smartlight_plant()), LazyPolicy()
            )
        )
        assert all(o.verdict == PASS for o in report.outcomes)
        assert report.conformant is None  # passing cannot *prove* tioco
        assert not report.failed_purposes
        assert "no violation found" in report.summary()

    def test_faulty_implementation_flagged(self, campaign):
        mutant = swap_output_channel(
            smartlight_plant(), "bright", automaton="IUT", source="L1",
            sync="dim!",
        )
        report = campaign.run(
            lambda: SimulatedImplementation(System(mutant), EagerPolicy())
        )
        assert report.conformant is False
        assert report.failed_purposes
        assert "NON-CONFORMANT" in report.summary()
        assert "failing trace" in report.summary()

    def test_repetitions(self, campaign):
        report = campaign.run(
            lambda: SimulatedImplementation(
                System(smartlight_plant()), EagerPolicy()
            ),
            config=SessionConfig(repetitions=3),
        )
        assert all(len(o.runs) == 3 for o in report.outcomes)

    def test_report_mentions_strategy_mode(self, campaign):
        report = campaign.run(
            lambda: SimulatedImplementation(
                System(smartlight_plant()), EagerPolicy()
            )
        )
        assert "winning strategy" in report.summary()
