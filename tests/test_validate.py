"""Tests for model validation (paper §2.2 restrictions)."""


from repro.semantics.system import System
from repro.ta import NetworkBuilder
from repro.ta.validate import (
    check_determinism,
    check_input_enabledness,
    validate_plant,
)


def deterministic_plant():
    net = NetworkBuilder("det")
    net.clock("x")
    net.input_channel("a")
    net.output_channel("b")
    p = net.automaton("P")
    p.location("s", initial=True)
    p.location("t", invariant="x <= 2")
    p.edge("s", "t", guard="x < 5", sync="a?", assign="x := 0")
    p.edge("s", "s", guard="x >= 5", sync="a?")
    p.edge("t", "s", sync="b!")
    p.edge("t", "t", sync="a?")
    return net.build()


def nondeterministic_plant():
    net = NetworkBuilder("nondet")
    net.clock("x")
    net.input_channel("a")
    p = net.automaton("P")
    p.location("s", initial=True)
    p.location("t1")
    p.location("t2")
    # Overlapping guards, different targets: same input, two effects.
    p.edge("s", "t1", guard="x <= 5", sync="a?")
    p.edge("s", "t2", guard="x >= 3", sync="a?")
    for loc in ("t1", "t2"):
        p.edge(loc, loc, sync="a?")
    return net.build()


def refusing_plant():
    net = NetworkBuilder("refuse")
    net.clock("x")
    net.input_channel("a")
    p = net.automaton("P")
    p.location("s", initial=True)
    p.location("t")
    # Input only accepted while x <= 3: refused later.
    p.edge("s", "t", guard="x <= 3", sync="a?")
    p.edge("t", "t", sync="a?")
    return net.build()


class TestDeterminism:
    def test_deterministic_passes(self):
        report = check_determinism(System(deterministic_plant()))
        assert report.ok

    def test_overlapping_guards_detected(self):
        report = check_determinism(System(nondeterministic_plant()))
        assert not report.ok
        assert any(i.kind == "nondeterminism" for i in report.issues)

    def test_output_choice_is_not_nondeterminism(self):
        """Different output *actions* from one state are fine (that is
        exactly the paper's uncontrollable-output setting)."""
        from repro.models.smartlight import smartlight_plant

        report = check_determinism(System(smartlight_plant()))
        assert report.ok, str(report)


class TestInputEnabledness:
    def test_enabled_plant_passes(self):
        report = check_input_enabledness(System(deterministic_plant()))
        assert report.ok, str(report)

    def test_refusal_detected(self):
        report = check_input_enabledness(System(refusing_plant()))
        assert not report.ok
        assert any(i.kind == "input-refusal" for i in report.issues)
        assert "a?" in str(report)

    def test_lep_plant_enabled(self):
        from repro.models.lep import lep_plant

        report = check_input_enabledness(System(lep_plant(3)))
        assert report.ok, str(report)


class TestCombined:
    def test_validate_plant_aggregates(self):
        report = validate_plant(System(nondeterministic_plant()))
        kinds = {i.kind for i in report.issues}
        assert "nondeterminism" in kinds

    def test_report_string(self):
        good = validate_plant(System(deterministic_plant()))
        assert "valid" in str(good)
        bad = validate_plant(System(refusing_plant()))
        assert "input-refusal" in str(bad)
