"""Tests for timed traces, verdicts (repro.testing.trace) and utilities."""

from fractions import Fraction

import pytest

from repro.testing.trace import FAIL, INCONCLUSIVE, PASS, ActionStep
from repro.testing.trace import TestRun as Run
from repro.testing.trace import TimedTrace
from repro.util import Measurement, format_table, measure, stopwatch


class TestTimedTrace:
    def test_empty(self):
        trace = TimedTrace()
        assert len(trace) == 0
        assert trace.total_time == 0
        assert str(trace) == "<empty>"

    def test_delays_merge(self):
        trace = TimedTrace()
        trace.add_delay(Fraction(1))
        trace.add_delay(Fraction(1, 2))
        assert len(trace.steps) == 1
        assert trace.steps[0].delay == Fraction(3, 2)

    def test_zero_delay_dropped(self):
        trace = TimedTrace()
        trace.add_delay(Fraction(0))
        assert len(trace) == 0

    def test_negative_delay_rejected(self):
        with pytest.raises(ValueError):
            TimedTrace().add_delay(Fraction(-1))

    def test_alternation(self):
        trace = TimedTrace()
        trace.add_delay(Fraction(2))
        trace.add_action("touch", "input")
        trace.add_delay(Fraction(1))
        trace.add_action("dim", "output")
        assert str(trace) == "2 . touch? . 1 . dim!"
        assert trace.total_time == 3

    def test_actions_list(self):
        trace = TimedTrace()
        trace.add_action("a", "input")
        trace.add_action("b", "output")
        labels = [a.label for a in trace.actions]
        assert labels == ["a", "b"]

    def test_action_marks(self):
        assert str(ActionStep("touch", "input")) == "touch?"
        assert str(ActionStep("dim", "output")) == "dim!"


class TestRunVerdicts:
    def test_pass_properties(self):
        run = Run(PASS, TimedTrace(), "done")
        assert run.passed and not run.failed
        assert "PASS" in str(run)

    def test_fail_properties(self):
        run = Run(FAIL, TimedTrace(), "bad output")
        assert run.failed and not run.passed
        assert "bad output" in str(run)

    def test_inconclusive(self):
        run = Run(INCONCLUSIVE, TimedTrace())
        assert not run.passed and not run.failed


class TestMeasurement:
    def test_measure_result(self):
        m = measure(lambda: 42, track_memory=False)
        assert m.result == 42
        assert not m.failed
        assert m.seconds >= 0

    def test_measure_memory(self):
        m = measure(lambda: [0] * 100000, track_memory=True)
        assert m.peak_mb is not None and m.peak_mb > 0

    def test_measure_swallows(self):
        m = measure(lambda: 1 / 0, track_memory=False, swallow=(ZeroDivisionError,))
        assert m.failed
        assert m.cell() == "/"
        assert m.memory_cell() == "/"

    def test_measure_propagates_unswallowed(self):
        with pytest.raises(ZeroDivisionError):
            measure(lambda: 1 / 0, track_memory=False)

    def test_cell_formatting(self):
        m = Measurement(1.2345, 12.0)
        assert m.cell() == "1.23"
        assert m.memory_cell() == "12"
        tiny = Measurement(0.1, 0.25)
        assert tiny.memory_cell() == "0.2"

    def test_stopwatch(self):
        with stopwatch() as timer:
            sum(range(1000))
        assert timer.seconds >= 0


class TestFormatTable:
    def test_alignment(self):
        text = format_table(
            "T", ["n=3", "n=4"], [("row1", ["0.1", "2.34"]), ("r2", ["/", "9"])]
        )
        lines = text.splitlines()
        assert lines[0] == "T"
        assert "n=3" in lines[1]
        assert "/" in text

    def test_wide_cells(self):
        text = format_table("T", ["col"], [("r", ["123456789"])])
        assert "123456789" in text
